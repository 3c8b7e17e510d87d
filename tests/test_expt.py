import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dgdx import expt
from dgdx.core import (
    FORMAT_BINARY,
    ROLE_TRAIN,
    ROLE_VALID,
    SPLIT_FIT,
    SPLIT_HOLDOUT,
    load_dump,
    save_dump,
    validate_no_label_shift,
)
from dgdx.metrics import diagnose

from support import (
    pack_params,
    reference_batch,
    reference_objective,
    reference_objective_gradient,
    traced_peak,
    unpack_params,
)


SMALL_SPEC = expt.SyntheticColoredSpec(
    num_domains=4, num_classes=3, signal_dim=4, color_dim=6, samples_per_domain=90,
    noise_std=1.0, seed=3,
)


def small_cfg(**kw):
    base = dict(algorithm="erm", epochs=3, steps_per_epoch=5, learning_rate=0.1,
                hidden_width=8, seed=0)
    base.update(kw)
    return expt.TrainConfig(**base)


class TestMakeDataset:
    def test_zero_noise_shares_colors_within_cell(self):
        spec = expt.SyntheticColoredSpec(num_domains=3, num_classes=2, signal_dim=2,
                                         color_dim=5, samples_per_domain=20,
                                         noise_std=0.0, seed=1)
        raw = expt.make_dataset(spec)
        for d in range(3):
            for y in range(2):
                m = (raw.domain_ids == d) & (raw.labels == y)
                block = raw.x[m][:, 2:]
                assert np.allclose(block, block[0])

    def test_balanced_classes_pass_label_shift_at_zero_tol(self):
        raw = expt.make_dataset(SMALL_SPEC)
        params = expt.init_params(SMALL_SPEC.input_dim, 6, 3, 0)
        ds = expt.export_representations(params, raw)
        assert validate_no_label_shift(ds, tol=0.0).passed

    def test_different_seeds_different_colors(self):
        a = expt.make_dataset(expt.SyntheticColoredSpec(seed=0, samples_per_domain=30))
        b = expt.make_dataset(expt.SyntheticColoredSpec(seed=1, samples_per_domain=30))
        assert not np.allclose(a.x[:5], b.x[:5])

    @pytest.mark.parametrize("samples", [3, 4, 5])
    def test_too_few_samples_per_class_are_rejected(self, samples):
        # 80/20 of one sample per class leaves every class without fit samples
        with pytest.raises(ValueError, match="samples_per_domain"):
            expt.SyntheticColoredSpec(num_classes=3, samples_per_domain=samples)

    def test_two_samples_per_class_give_each_cell_both_splits(self):
        raw = expt.make_dataset(expt.SyntheticColoredSpec(num_classes=3, samples_per_domain=6))
        for d in range(5):
            for y in range(3):
                m = (raw.domain_ids == d) & (raw.labels == y)
                assert np.bincount(raw.splits[m], minlength=2).tolist() == [1, 1]

    def test_split_is_80_20_per_cell(self):
        raw = expt.make_dataset(SMALL_SPEC)
        for d in range(4):
            for y in range(3):
                m = (raw.domain_ids == d) & (raw.labels == y)
                fit = (raw.splits[m] == SPLIT_FIT).sum()
                hold = (raw.splits[m] == SPLIT_HOLDOUT).sum()
                assert fit == 24 and hold == 6


# the CORAL gradient sums over pairs of training domains in closed form,
# which differs from one pair's terms only from 3 training domains on
FD_CASES = [
    pytest.param(alg, beta, n, id=f"{alg}-{beta}" + (f"-{n}-train" if n > 2 else ""))
    for alg, beta, trains in (("erm", 0.0, (2,)), ("coral", 1.7, (2, 3, 4, 5)),
                              ("cond-invariance", 0.9, (2, 3, 4, 5)), ("group-dro", 2.5, (2,)))
    for n in trains
]


class TestObjectives:
    @pytest.mark.parametrize("alg,beta,n_train", FD_CASES)
    def test_gradients_match_finite_differences(self, alg, beta, n_train):
        spec = replace(SMALL_SPEC, num_domains=n_train + 2)
        raw = expt.make_dataset(spec)
        x, labels, pos, n_groups = expt._fit_batch(raw)
        assert n_groups == n_train
        cfg = small_cfg(algorithm=alg, beta=beta)
        rng = np.random.default_rng(17)
        params = expt.init_params(spec.input_dim, cfg.hidden_width, 3, seed=1)
        for _ in range(60):
            p = {k: v + rng.normal(0, 0.25, v.shape) for k, v in params.items()}
            pre1, _, pre2, _, _ = expt.forward(p, x)
            if min(np.abs(pre1).min(), np.abs(pre2).min()) > 1e-4:
                break
        vec = pack_params(p)

        def f(v):
            return expt.objective_and_grad(
                unpack_params(v, p), x, labels, pos, n_groups, 3, cfg
            )

        _, grads = f(vec)
        g = pack_params(grads)
        h = 1e-6
        idx = rng.choice(vec.size, size=60, replace=False)
        fd = np.zeros_like(idx, dtype=float)
        for k, i in enumerate(idx):
            vp, vm = vec.copy(), vec.copy()
            vp[i] += h
            vm[i] -= h
            fd[k] = (f(vp)[0] - f(vm)[0]) / (2 * h)
        rel = np.linalg.norm(fd - g[idx]) / max(np.linalg.norm(fd), np.linalg.norm(g[idx]))
        assert rel <= 1e-4

    def test_erm_requires_zero_beta(self):
        with pytest.raises(ValueError, match="beta"):
            expt.TrainConfig(algorithm="erm", beta=1.0)

    def test_group_dro_requires_positive_beta(self):
        with pytest.raises(ValueError, match="beta"):
            expt.TrainConfig(algorithm="group-dro", beta=0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf"), -1.0, -1e-300])
    def test_learning_rate_must_be_finite_and_nonnegative(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            expt.TrainConfig(learning_rate=lr)


def _softmax(logits):
    u = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(u)
    return e / e.sum(axis=1, keepdims=True)


def _fused_objective_and_grad(params, x, labels, domain_pos, n_groups, num_classes, cfg):
    """The objective and gradient in one plain pass, with no workspace:
    the reference ``objective`` and ``objective_gradient`` must match bit
    for bit.  The penalty gradients are in closed form: over its pairs, a
    CORAL group's mean and covariance differences sum to
    ``G * stat_g - sum_h stat_h`` for G groups."""
    n = x.shape[0]
    pre1, h1, pre2, h2, logits = expt.forward(params, x)
    probs = _softmax(logits)
    logp = logits - logits.max(axis=1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
    nll = -logp[np.arange(n), labels]
    groups = [np.flatnonzero(domain_pos == g) for g in range(n_groups)]
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    if cfg.algorithm == "group-dro":
        t = cfg.beta * np.array([nll[idx].mean() for idx in groups])
        tmax = t.max()
        lse = tmax + np.log(np.exp(t - tmax).sum())
        data_term = lse / cfg.beta
        q = np.exp(t - lse)
        scale = np.zeros(n)
        for g, idx in enumerate(groups):
            scale[idx] = q[g] / idx.size
        dlogits *= scale[:, None]
    else:
        data_term = nll.mean()
        dlogits /= n

    d = h2.shape[1]
    dh2_pen = None
    penalty = 0.0
    if cfg.algorithm == "coral" and cfg.beta > 0:
        mus = [h2[idx].mean(axis=0) for idx in groups]
        hcs = [h2[idx] - mu for idx, mu in zip(groups, mus)]
        covs = [hc.T @ hc / idx.size for idx, hc in zip(groups, hcs)]
        for a in range(n_groups):
            for b in range(a + 1, n_groups):
                dmu, dcov = mus[a] - mus[b], covs[a] - covs[b]
                penalty += (dmu @ dmu) / d + (dcov * dcov).sum() / (d * d)
        n_pairs = max(n_groups * (n_groups - 1) // 2, 1)
        penalty /= n_pairs
        dh2_pen = np.zeros_like(h2)
        for idx, mu, hc, cov in zip(groups, mus, hcs, covs):
            s = 2.0 / (n_pairs * d * idx.size)
            dh2_pen[idx] = (s * (n_groups * mu - sum(mus))
                            + hc @ ((2.0 * s / d) * (n_groups * cov - sum(covs))))
    elif cfg.algorithm == "cond-invariance" and cfg.beta > 0:
        onehot = np.eye(n_groups)[domain_pos]
        classes = [idx for idx in (np.flatnonzero(labels == y) for y in range(num_classes))
                   if idx.size >= 2]
        scale = expt.PENALTY_SCALE / max(len(classes), 1)
        dh2_pen = np.zeros_like(h2)
        for idx in classes:
            r, dy = h2[idx], onehot[idx]
            rc, dc = r - r.mean(axis=0), dy - dy.mean(axis=0)
            m = rc.T @ dc / idx.size
            penalty += (m * m).sum()
            dh2_pen[idx] = dc @ ((2.0 * scale / idx.size) * m.T)
        penalty *= scale

    obj = data_term + cfg.beta * penalty
    wd = expt.WEIGHT_DECAY
    for key in ("W1", "W2", "W3"):
        obj += 0.5 * wd * float((params[key] ** 2).sum())
    dh2 = dlogits @ params["W3"].T
    if dh2_pen is not None:
        dh2 = dh2 + cfg.beta * dh2_pen
    dpre2 = dh2 * (pre2 > 0)
    dh1 = dpre2 @ params["W2"].T
    dpre1 = dh1 * (pre1 > 0)
    return obj, {
        "W3": h2.T @ dlogits + wd * params["W3"],
        "b3": dlogits.sum(axis=0),
        "W2": h1.T @ dpre2 + wd * params["W2"],
        "b2": dpre2.sum(axis=0),
        "W1": x.T @ dpre1 + wd * params["W1"],
        "b1": dpre1.sum(axis=0),
    }


def _moving(cfg):
    """The parameter keys that ``train`` moves under ``cfg``."""
    return [k for k in expt.PARAM_KEYS if not (cfg.freeze_features and k in expt.FEATURE_KEYS)]


def _reference_train(raw, cfg, carry=True):
    """The line search as written before trial steps skipped the gradient:
    every trial calls ``objective_and_grad``.  Each search starts where
    ``train``'s does; with ``carry`` False, every search starts at the
    learning rate instead, as before the step length was carried over.
    Also returns how many trial steps were rejected."""
    x, labels, pos, n_groups = expt._fit_batch(raw)
    params = expt.init_params(raw.spec.input_dim, cfg.hidden_width, raw.spec.num_classes,
                              cfg.seed)
    moving = _moving(cfg)

    def value(p):
        return expt.objective_and_grad(p, x, labels, pos, n_groups, raw.spec.num_classes, cfg)

    obj, grads = value(params)
    checkpoints, trace, rejected = [], [], 0
    start = cfg.learning_rate
    for _ in range(cfg.epochs):
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
                new_obj, new_grads = value(cand)
                if new_obj <= obj - 1e-4 * step * gnorm2:
                    params, obj, grads = cand, new_obj, new_grads
                    accepted = True
                    break
                rejected += 1
                step *= 0.5
            if not accepted:
                break
            if carry:
                start = min(cfg.learning_rate, 2.0 * step) if trial == 0 else step
        checkpoints.append({k: v.copy() for k, v in params.items()})
        trace.append(float(obj))
    return checkpoints, tuple(trace), rejected


SPLIT_CASES = [
    ("erm", 0.0), ("coral", 1.7), ("coral", 0.0), ("cond-invariance", 0.9),
    ("cond-invariance", 0.0), ("group-dro", 2.5),
]


class TestObjectiveSplit:
    def _assert_split_matches(self, cfg, x, labels, pos, n_groups):
        """At three parameter points, with one batch built for all three."""
        batch = expt.make_batch(x, labels, pos, n_groups, 3)
        for seed in range(3):
            p = expt.init_params(SMALL_SPEC.input_dim, cfg.hidden_width, 3, seed=seed)
            obj, state = expt.objective(p, batch, cfg)
            grads = expt.objective_gradient(state, batch, cfg)
            for ref_obj, ref_grads in (
                expt.objective_and_grad(p, x, labels, pos, n_groups, 3, cfg),
                _fused_objective_and_grad(p, x, labels, pos, n_groups, 3, cfg),
            ):
                assert obj == ref_obj
                assert type(obj) is type(ref_obj)
                assert grads.keys() == ref_grads.keys()
                for k in grads:
                    assert np.array_equal(grads[k], ref_grads[k]), k

    @pytest.mark.parametrize("alg,beta", SPLIT_CASES)
    def test_split_equals_fused_objective(self, alg, beta):
        x, labels, pos, n_groups = expt._fit_batch(expt.make_dataset(SMALL_SPEC))
        self._assert_split_matches(small_cfg(algorithm=alg, beta=beta), x, labels, pos,
                                   n_groups)

    @pytest.mark.parametrize("alg,beta", SPLIT_CASES)
    def test_class_with_one_sample(self, alg, beta):
        x, labels, pos, n_groups = expt._fit_batch(expt.make_dataset(SMALL_SPEC))
        keep = (labels != 2) | (np.arange(labels.size) == np.flatnonzero(labels == 2)[0])
        x, labels, pos = x[keep], labels[keep], pos[keep]
        assert (labels == 2).sum() == 1
        # cond-invariance skips the class and averages over the other two
        assert len(expt.make_batch(x, labels, pos, n_groups, 3).classes) == 2
        self._assert_split_matches(small_cfg(algorithm=alg, beta=beta), x, labels, pos,
                                   n_groups)


def _assert_same_bits(grads, ref_grads):
    assert grads.keys() == ref_grads.keys()
    for k in ref_grads:
        assert grads[k].dtype == ref_grads[k].dtype, k
        assert grads[k].tobytes() == ref_grads[k].tobytes(), k


class TestWorkspace:
    @pytest.mark.parametrize("alg,beta", SPLIT_CASES)
    def test_objective_reuses_the_batch_workspace(self, alg, beta):
        x, labels, pos, n_groups = expt._fit_batch(expt.make_dataset(SMALL_SPEC))
        cfg = small_cfg(algorithm=alg, beta=beta)
        batch = expt.make_batch(x, labels, pos, n_groups, 3)
        states = []
        for seed in range(2):
            p = expt.init_params(SMALL_SPEC.input_dim, cfg.hidden_width, 3, seed=seed)
            obj, state = expt.objective(p, batch, cfg)
            grads = expt.objective_gradient(state, batch, cfg)
            ref_obj, ref_grads = _fused_objective_and_grad(p, x, labels, pos, n_groups, 3, cfg)
            assert obj == ref_obj
            _assert_same_bits(grads, ref_grads)
            states.append(state)
        # pre1, h1, pre2, h2 and the logits of both calls live in the same arrays
        for first, second in zip(states[0].forward, states[1].forward):
            assert np.shares_memory(first, second)


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


# each algorithm, with a penalty or temperature where it takes one
_REFERENCE_CASES = [("erm", 0.0), ("coral", 1.7), ("cond-invariance", 0.9), ("group-dro", 2.5)]


class TestReferenceObjective:
    @pytest.mark.parametrize("alg,beta", _REFERENCE_CASES)
    @pytest.mark.parametrize("width", [1, 12])
    @pytest.mark.parametrize("num_classes", [2, 3, 9])
    def test_objective_and_gradient_equal_the_reference_bits(self, alg, beta, width,
                                                             num_classes):
        # width 1 reaches the one-column sums, 9 classes the rows of 8 and more columns
        spec = replace(SMALL_SPEC, num_classes=num_classes, samples_per_domain=10 * num_classes)
        x, labels, pos, n_groups = expt._fit_batch(expt.make_dataset(spec))
        cfg = small_cfg(algorithm=alg, beta=beta, hidden_width=width)
        batch = expt.make_batch(x, labels, pos, n_groups, num_classes)
        ref_batch = reference_batch(batch, labels)
        for seed in range(2):
            p = expt.init_params(spec.input_dim, width, num_classes, seed=seed)
            p["b1"] += 0.5  # some live units at width 1
            obj, state = expt.objective(p, batch, cfg)
            ref_obj, ref_state = reference_objective(p, ref_batch, cfg)
            assert _bits(obj) == _bits(ref_obj)
            for got, want in zip(state.softmax, ref_state.softmax):
                assert _bits(got) == _bits(want)
            grads = expt.objective_gradient(state, batch, cfg)
            ref_grads = reference_objective_gradient(ref_state, ref_batch, cfg)
            assert grads.keys() == ref_grads.keys()
            for k in ref_grads:
                assert _bits(grads[k]) == _bits(ref_grads[k]), k


class TestTrain:
    def test_start_of_another_output_width_is_rejected(self):
        raw = expt.make_dataset(SMALL_SPEC)
        start = expt.init_params(SMALL_SPEC.input_dim, 8, SMALL_SPEC.num_classes + 1, 0)
        with pytest.raises(ValueError, match="output width"):
            expt.train(raw, small_cfg(), start=start)

    def test_zero_learning_rate_keeps_parameters(self):
        raw = expt.make_dataset(SMALL_SPEC)
        model = expt.train(raw, small_cfg(learning_rate=0.0))
        first, last = model.checkpoints[0], model.checkpoints[-1]
        for k in expt.PARAM_KEYS:
            assert np.array_equal(first[k], last[k])

    def test_checkpoint_count_equals_epochs(self):
        raw = expt.make_dataset(SMALL_SPEC)
        model = expt.train(raw, small_cfg(epochs=4))
        assert len(model.checkpoints) == 4
        assert len(model.objective_trace) == 4

    def test_objective_non_increasing(self):
        raw = expt.make_dataset(SMALL_SPEC)
        for alg, beta in [("erm", 0.0), ("coral", 1.0), ("cond-invariance", 1.0),
                          ("group-dro", 2.0)]:
            model = expt.train(raw, small_cfg(algorithm=alg, beta=beta, epochs=5))
            trace = np.array(model.objective_trace)
            assert (np.diff(trace) <= 1e-12).all(), alg

    def test_divergence_raises_with_epoch(self):
        raw = expt.make_dataset(SMALL_SPEC)
        cfg = small_cfg(algorithm="cond-invariance", beta=1e300)
        with pytest.raises(expt.DivergenceError, match="epoch"):
            expt.train(raw, cfg)

    def test_divergence_raises_no_numpy_warning(self):
        raw = expt.make_dataset(SMALL_SPEC)
        cfg = small_cfg(algorithm="cond-invariance", beta=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(expt.DivergenceError, match="epoch"):
                expt.train(raw, cfg)

    def test_deterministic(self):
        raw = expt.make_dataset(SMALL_SPEC)
        m1 = expt.train(raw, small_cfg())
        m2 = expt.train(raw, small_cfg())
        for k in expt.PARAM_KEYS:
            assert np.array_equal(m1.final[k], m2.final[k])

    def test_freeze_features_keeps_representations(self):
        raw = expt.make_dataset(SMALL_SPEC)
        model = expt.train(raw, small_cfg(freeze_features=True, epochs=4))
        r0 = expt.representations(model.checkpoints[0], raw.x)
        for cp in model.checkpoints[1:]:
            assert np.array_equal(expt.representations(cp, raw.x), r0)

    def test_frozen_metrics_constant_across_checkpoints(self):
        raw = expt.make_dataset(SMALL_SPEC)
        model = expt.train(raw, small_cfg(freeze_features=True, epochs=3))
        diags = []
        for i in range(3):
            ds = expt.export_representations(model.checkpoints[i], raw)
            diags.append(diagnose(ds, model.head_probe(i), ROLE_VALID))
        for f in ("e1_prime", "e2_prime", "d0_prime", "d1_prime", "d2_prime"):
            vals = [getattr(d, f) for d in diags]
            assert max(vals) - min(vals) <= 1e-9, f


class TestTrainMatchesReference:
    @pytest.mark.parametrize("kw", [
        dict(algorithm="erm"),
        dict(algorithm="coral", beta=1.0),
        dict(algorithm="cond-invariance", beta=1.0),
        dict(algorithm="group-dro", beta=2.0),
        dict(algorithm="erm", freeze_features=True),
    ], ids=["erm", "coral", "cond-invariance", "group-dro", "frozen"])
    def test_train_equals_loop_with_gradient_per_trial(self, kw):
        raw = expt.make_dataset(SMALL_SPEC)
        cfg = small_cfg(learning_rate=4.0, epochs=3, steps_per_epoch=8, **kw)
        checkpoints, trace, rejected = _reference_train(raw, cfg)
        assert rejected > 0  # the line search backtracked
        model = expt.train(raw, cfg)
        assert model.objective_trace == trace
        assert len(model.checkpoints) == len(checkpoints)
        for got, want in zip(model.checkpoints, checkpoints):
            for k in expt.PARAM_KEYS:
                assert np.array_equal(got[k], want[k]), k


class TestTrainCallsModuleGlobals:
    """``train`` reaches the objective and its gradient through the module
    globals, once per trial step and once per accepted step (plus once each at
    the start), so a tracer that wraps those globals sees every call."""

    @pytest.mark.parametrize("kw", [
        dict(algorithm="erm"),
        dict(algorithm="coral", beta=1.0),
        dict(algorithm="cond-invariance", beta=1.0),
        dict(algorithm="group-dro", beta=2.0),
        dict(algorithm="erm", freeze_features=True),
    ], ids=["erm", "coral", "cond-invariance", "group-dro", "frozen"])
    def test_calls_equal_reference_trials_and_accepted_steps(self, monkeypatch, kw):
        raw = expt.make_dataset(SMALL_SPEC)
        cfg = small_cfg(learning_rate=4.0, epochs=3, steps_per_epoch=8, **kw)
        counts = {"objective_and_grad": 0, "objective": 0, "objective_gradient": 0}

        def count(name):
            original = getattr(expt, name)

            def wrapper(*args):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(expt, name, wrapper)

        count("objective_and_grad")
        _, _, rejected = _reference_train(raw, cfg)
        monkeypatch.undo()
        trials = counts["objective_and_grad"] - 1  # the first call is the starting point
        assert rejected > 0

        count("objective")
        count("objective_gradient")
        expt.train(raw, cfg)
        assert counts["objective"] == trials + 1
        assert counts["objective_gradient"] == trials - rejected + 1


class TestStepStart:
    """Each line search starts at twice the last accepted step after an
    immediate accept (capped at the learning rate), at the accepted step
    after a backtracked one, and at the learning rate the first time."""

    @staticmethod
    def _searches(monkeypatch, raw, cfg):
        """The trial steps of each of ``train``'s line searches, read off the
        candidates it evaluates: the least-squares step from the accepted
        parameters along their gradient, both projected onto the moving
        parameters."""
        events = []
        objective, gradient = expt.objective, expt.objective_gradient

        def trial(params, batch, cfg):
            events.append((params, None))
            return objective(params, batch, cfg)

        def accept(state, batch, cfg):
            grads = gradient(state, batch, cfg)
            events.append((state.params, grads))
            return grads

        monkeypatch.setattr(expt, "objective", trial)
        monkeypatch.setattr(expt, "objective_gradient", accept)
        expt.train(raw, cfg)
        searches = []
        for params, grads in events[1:]:  # the first evaluation is the starting point
            if grads is not None:
                base, direction = params, {k: grads[k] for k in _moving(cfg)}
                searches.append([])
                continue
            num = sum(float(((base[k] - params[k]) * g).sum()) for k, g in direction.items())
            den = sum(float((g * g).sum()) for g in direction.values())
            searches[-1].append(num / den)
        return [s for s in searches if s]

    @pytest.mark.parametrize("kw", [
        dict(algorithm="cond-invariance", beta=1.0, learning_rate=4.0),
        dict(algorithm="erm", learning_rate=1.0),
        dict(algorithm="erm", learning_rate=4.0, freeze_features=True),
    ], ids=["cond-invariance", "erm", "frozen"])
    def test_each_search_starts_from_the_last_accepted_step(self, monkeypatch, kw):
        raw = expt.make_dataset(SMALL_SPEC)
        cfg = small_cfg(epochs=3, steps_per_epoch=8, **kw)
        lr = cfg.learning_rate
        searches = self._searches(monkeypatch, raw, cfg)
        assert len(searches) == 24
        assert searches[0][0] == pytest.approx(lr, rel=1e-9)
        grown = carried = 0
        for prev, cur in zip(searches, searches[1:]):
            for a, b in zip(cur, cur[1:]):
                assert b == pytest.approx(0.5 * a, rel=1e-9)
            accepted = prev[-1]
            if len(prev) == 1:
                assert cur[0] == pytest.approx(min(lr, 2.0 * accepted), rel=1e-9)
                grown += cur[0] > accepted * (1 + 1e-9)
            else:
                assert cur[0] == pytest.approx(accepted, rel=1e-9)
                carried += accepted < lr * (1 - 1e-9)
        assert grown > 0 and carried > 0  # both rules ran, from below the learning rate
        assert max(max(s) for s in searches) <= lr * (1 + 1e-9)

    def test_run_without_backtracking_keeps_the_old_checkpoints(self):
        raw = expt.make_dataset(SMALL_SPEC)
        cfg = small_cfg(learning_rate=0.5, epochs=3, steps_per_epoch=20)
        checkpoints, trace, rejected = _reference_train(raw, cfg, carry=False)
        assert rejected == 0
        model = expt.train(raw, cfg)
        assert model.objective_trace == trace
        for got, want in zip(model.checkpoints, checkpoints, strict=True):
            for k in expt.PARAM_KEYS:
                assert got[k].tobytes() == want[k].tobytes(), k


# ``train``'s checkpoints and objective trace on SMALL_SPEC, hashed per
# configuration; at learning rate 4 the line search backtracks in each.  The
# frozen penalized cases pin the penalty on fixed features as well.
_PIN_TRAININGS = {
    "erm": dict(algorithm="erm"),
    "frozen": dict(algorithm="erm", freeze_features=True),
    "group-dro": dict(algorithm="group-dro", beta=2.0),
    "coral": dict(algorithm="coral", beta=1.0),
    "cond-invariance": dict(algorithm="cond-invariance", beta=1.0),
    "frozen-coral": dict(algorithm="coral", beta=1.0, freeze_features=True),
    "frozen-cond-invariance": dict(algorithm="cond-invariance", beta=1.0, freeze_features=True),
    "frozen-group-dro": dict(algorithm="group-dro", beta=2.0, freeze_features=True),
}
_PINNED_TRAINING_SHA256 = {
    "erm": "d025fc91e57970498cb2d5d117d6a37b75307693188fbe485873308b1a9436ff",
    "frozen": "b2768160cb52154b9fa2f2e3d3c7f59f069f05e782b93353952ae5b58f0f80dc",
    "group-dro": "b634a313624ab970bd9e3dace21c93bd92a234772d1d7b87df682fc9acc43294",
    "coral": "13e1369f72ea9b01bc274b929877a45477217b7b5c9eb0690f3f760ff12b8a71",
    "cond-invariance": "6afd3f2af6183ff70617de8c8af72c6e6cd922b728ffda10d48f8629e181a32b",
    "frozen-coral": "4d03fa49dad6e03c4d0edeb1efd4745db0bbabafd8fe8181d7601b9454a26810",
    "frozen-cond-invariance": "a7ef42709f79d40c5340e7a082d3a9861a3b0371e4b3e6a600ffca6c7ca9f286",
    "frozen-group-dro": "1770869fad150e5728e840f21539c2d6df7bea4525262646d3ed374f365375b8",
}


def test_training_outputs_are_pinned():
    raw = expt.make_dataset(SMALL_SPEC)
    digests = {}
    for name, kw in _PIN_TRAININGS.items():
        model = expt.train(raw, small_cfg(learning_rate=4.0, epochs=3, steps_per_epoch=20,
                                          **kw))
        h = hashlib.sha256(np.array(model.objective_trace).tobytes())
        for checkpoint in model.checkpoints:
            for k in expt.PARAM_KEYS:
                h.update(checkpoint[k].tobytes())
        digests[name] = h.hexdigest()
    assert digests == _PINNED_TRAINING_SHA256


class TestExportRepresentations:
    def test_identity_network_reproduces_nonnegative_inputs(self):
        raw = expt.make_dataset(SMALL_SPEC)
        x = np.abs(raw.x)
        raw = expt.RawDataset(x, raw.labels, raw.domain_ids, raw.splits, raw.domains, raw.spec)
        p = SMALL_SPEC.input_dim
        params = {
            "W1": np.eye(p), "b1": np.zeros(p),
            "W2": np.eye(p), "b2": np.zeros(p),
            "W3": np.zeros((p, 3)), "b3": np.zeros(3),
        }
        ds = expt.export_representations(params, raw)
        assert np.allclose(ds.z, x.astype(np.float32))

    def test_round_trip_dump_preserves_diagnosis(self, tmp_path):
        raw = expt.make_dataset(SMALL_SPEC)
        model = expt.train(raw, small_cfg())
        ds = expt.export_representations(model.final, raw)
        path = tmp_path / "reps.bin"
        save_dump(ds, path, FORMAT_BINARY)
        ds2 = load_dump(path, FORMAT_BINARY)
        a = diagnose(ds, model.head_probe(), ROLE_VALID)
        b = diagnose(ds2, model.head_probe(), ROLE_VALID)
        for f in ("e0_prime", "e1_prime", "e2_prime", "e3_prime",
                  "d0_prime", "d1_prime", "d2_prime"):
            assert abs(getattr(a, f) - getattr(b, f)) <= 1e-9


class TestSweepAndTrajectory:
    def test_single_beta_erm_sweep(self):
        raw = expt.make_dataset(SMALL_SPEC)
        rows = expt.sweep_beta(raw, [0.0], small_cfg(), ROLE_VALID)
        assert len(rows) == 1
        assert rows[0].beta == 0.0

    def test_empty_grid_rejected(self):
        raw = expt.make_dataset(SMALL_SPEC)
        with pytest.raises(ValueError, match="nonempty"):
            expt.sweep_beta(raw, [], small_cfg(), ROLE_VALID)

    def test_bad_beta_rejected_before_any_training(self, monkeypatch):
        raw = expt.make_dataset(SMALL_SPEC)
        calls = []
        original = expt.train

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(expt, "train", counted)
        with pytest.raises(ValueError, match="nonnegative"):
            expt.sweep_beta(raw, [0.1, -1.0], small_cfg(algorithm="coral"), ROLE_VALID)
        assert len(calls) == 0

    def test_sweep_deterministic(self):
        raw = expt.make_dataset(SMALL_SPEC)
        base = small_cfg(algorithm="cond-invariance")
        r1 = expt.sweep_beta(raw, [0.5, 2.0], base, ROLE_VALID)
        r2 = expt.sweep_beta(raw, [0.5, 2.0], base, ROLE_VALID)
        for a, b in zip(r1, r2):
            assert a.diagnosis == b.diagnosis

    def test_trajectory_zero_lr_identical_and_correlation_undefined(self):
        raw = expt.make_dataset(SMALL_SPEC)
        cfg = small_cfg(epochs=2, learning_rate=0.0)
        res = expt.trajectory(raw, cfg, ROLE_VALID)
        assert len(res.diagnoses) == 2
        assert res.diagnoses[0] == res.diagnoses[1]
        assert res.e3_d1_correlation is None

    def test_trajectory_matches_recomputed_diagnoses(self, tmp_path):
        raw = expt.make_dataset(SMALL_SPEC)
        cfg = small_cfg(epochs=3)
        res = expt.trajectory(raw, cfg, ROLE_VALID)
        model = expt.train(raw, cfg)
        for i, diag in enumerate(res.diagnoses):
            ds = expt.export_representations(model.checkpoints[i], raw)
            path = tmp_path / f"cp{i}.bin"
            save_dump(ds, path, FORMAT_BINARY)
            again = diagnose(load_dump(path, FORMAT_BINARY), model.head_probe(i), ROLE_VALID)
            assert abs(again.e3_prime - diag.e3_prime) <= 1e-9


class TestPca2d:
    def test_full_rank_2d_explains_everything(self):
        from conftest import random_dataset

        ds = random_dataset(2, dim=2)
        res = expt.pca2d(ds)
        assert res.explained[0] + res.explained[1] == pytest.approx(1.0, abs=1e-9)
        assert res.coords.shape == (ds.num_samples, 2)

    def test_constant_third_coordinate(self):
        from dgdx.core import RepresentationDataset
        from conftest import random_dataset

        ds2 = random_dataset(4, dim=2)
        z3 = np.concatenate([ds2.z, np.full((ds2.num_samples, 1), 7.0, dtype=np.float32)],
                            axis=1)
        ds3 = RepresentationDataset(3, ds2.num_classes, ds2.domains, ds2.domain_ids,
                                    ds2.splits, ds2.labels, z3)
        res = expt.pca2d(ds3)
        assert res.explained[0] + res.explained[1] == pytest.approx(1.0, abs=1e-9)
        # the projection is a rotation of the first two coordinates
        dist_orig = np.linalg.norm(ds2.z.astype(float) - ds2.z.astype(float).mean(0), axis=1)
        dist_proj = np.linalg.norm(res.coords, axis=1)
        assert np.allclose(dist_orig, dist_proj, atol=1e-5)

    def test_matches_eigendecomposition(self):
        from conftest import random_dataset

        ds = random_dataset(9, dim=10, per_cell=20)
        res = expt.pca2d(ds)
        cov = np.cov(ds.z.astype(np.float64).T)
        evals = np.sort(np.linalg.eigvalsh(cov))[::-1]
        total = evals.sum()
        assert res.explained[0] == pytest.approx(evals[0] / total, abs=1e-9)
        assert res.explained[1] == pytest.approx(evals[1] / total, abs=1e-9)

    def test_sign_convention_deterministic(self):
        from conftest import random_dataset

        ds = random_dataset(11, dim=4)
        a = expt.pca2d(ds)
        b = expt.pca2d(ds)
        assert np.array_equal(a.components, b.components)
        for i in range(2):
            v = a.components[i]
            assert v[np.argmax(np.abs(v))] > 0

    def test_peak_memory_is_one_float64_copy_of_the_rows(self):
        from conftest import random_dataset

        ds = random_dataset(5, dim=32, per_cell=1000)
        res, peak = traced_peak(expt.pca2d, ds)
        rows = ds.num_samples * ds.dim * 8
        # beyond the centred copy: the coordinates and small (dim, dim) and (dim,) arrays
        assert peak <= rows + res.coords.nbytes + (256 << 10)

    def test_zero_variance_rejected(self):
        from dgdx.core import DomainMeta, RepresentationDataset

        domains = (DomainMeta(0, "a", ROLE_TRAIN), DomainMeta(1, "b", ROLE_TRAIN))
        n = 8
        ds = RepresentationDataset(
            2, 2, domains,
            [0, 0, 0, 0, 1, 1, 1, 1],
            [0, 1, 0, 1, 0, 1, 0, 1],
            [0, 0, 1, 1, 0, 0, 1, 1],
            np.ones((n, 2), dtype=np.float32),
        )
        with pytest.raises(ValueError, match="variance"):
            expt.pca2d(ds)
