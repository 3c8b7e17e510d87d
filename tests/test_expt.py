import warnings

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
from dgdx.metrics import MetricConfig, diagnose

from support import pack_params, unpack_params


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
        model = expt.init_params(SMALL_SPEC.input_dim, 6, 3, 0)
        ds = expt.export_representations(model, raw)
        assert validate_no_label_shift(ds, tol=0.0).passed

    def test_different_seeds_different_colors(self):
        a = expt.make_dataset(expt.SyntheticColoredSpec(seed=0, samples_per_domain=30))
        b = expt.make_dataset(expt.SyntheticColoredSpec(seed=1, samples_per_domain=30))
        assert not np.allclose(a.x[:5], b.x[:5])

    def test_split_is_80_20_per_cell(self):
        raw = expt.make_dataset(SMALL_SPEC)
        for d in range(4):
            for y in range(3):
                m = (raw.domain_ids == d) & (raw.labels == y)
                fit = (raw.splits[m] == SPLIT_FIT).sum()
                hold = (raw.splits[m] == SPLIT_HOLDOUT).sum()
                assert fit == 24 and hold == 6


class TestObjectives:
    @pytest.mark.parametrize(
        "alg,beta",
        [("erm", 0.0), ("coral", 1.7), ("cond-invariance", 0.9), ("group-dro", 2.5)],
    )
    def test_gradients_match_finite_differences(self, alg, beta):
        raw = expt.make_dataset(SMALL_SPEC)
        x, labels, pos, n_groups = expt._fit_batch(raw)
        cfg = small_cfg(algorithm=alg, beta=beta)
        rng = np.random.default_rng(17)
        params = expt.init_params(SMALL_SPEC.input_dim, cfg.hidden_width, 3, seed=1)
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


def _softmax(logits):
    u = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(u)
    return e / e.sum(axis=1, keepdims=True)


def _fused_objective_and_grad(params, x, labels, domain_pos, n_groups, num_classes, cfg):
    """The objective and gradient in one pass, as written before the split
    into ``objective`` and ``objective_gradient``: the reference they must
    match bit for bit."""
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
    dh2_pen = np.zeros_like(h2)
    penalty = 0.0
    if cfg.algorithm == "coral" and cfg.beta > 0:
        stats = []
        for idx in groups:
            hc = h2[idx] - h2[idx].mean(axis=0)
            stats.append((idx, h2[idx].mean(axis=0), hc, hc.T @ hc / idx.size))
        pairs = [(a, b) for a in range(n_groups) for b in range(a + 1, n_groups)]
        for a, b in pairs:
            idx_a, mu_a, hc_a, cov_a = stats[a]
            idx_b, mu_b, hc_b, cov_b = stats[b]
            dmu, dcov = mu_a - mu_b, cov_a - cov_b
            penalty += (dmu @ dmu) / d + (dcov * dcov).sum() / (d * d)
            dh2_pen[idx_a] += (2.0 / (d * idx_a.size)) * dmu
            dh2_pen[idx_b] -= (2.0 / (d * idx_b.size)) * dmu
            dh2_pen[idx_a] += (4.0 / (d * d * idx_a.size)) * hc_a @ dcov
            dh2_pen[idx_b] -= (4.0 / (d * d * idx_b.size)) * hc_b @ dcov
        n_pairs = max(len(pairs), 1)
        penalty, dh2_pen = penalty / n_pairs, dh2_pen / n_pairs
    elif cfg.algorithm == "cond-invariance" and cfg.beta > 0:
        onehot = np.eye(n_groups)[domain_pos]
        used = 0
        for y in range(num_classes):
            idx = np.flatnonzero(labels == y)
            if idx.size < 2:
                continue
            r, dy = h2[idx], onehot[idx]
            rc, dc = r - r.mean(axis=0), dy - dy.mean(axis=0)
            m = rc.T @ dc / idx.size
            penalty += (m * m).sum()
            dh2_pen[idx] += dc @ (2.0 * m.T) / idx.size
            used += 1
        scale = expt.PENALTY_SCALE / max(used, 1)
        penalty, dh2_pen = penalty * scale, dh2_pen * scale

    obj = data_term + cfg.beta * penalty
    wd = cfg.weight_decay
    for key in ("W1", "W2", "W3"):
        obj += 0.5 * wd * float((params[key] ** 2).sum())
    dh2 = dlogits @ params["W3"].T + cfg.beta * dh2_pen
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


def _reference_train(raw, cfg, carry=True):
    """The line search as written before trial steps skipped the gradient:
    every trial calls ``objective_and_grad``.  Each search starts where
    ``train``'s does; with ``carry`` False, every search starts at the
    learning rate instead, as before the step length was carried over.
    Also returns how many trial steps were rejected."""
    x, labels, pos, n_groups = expt._fit_batch(raw)
    params = expt.init_params(raw.spec.input_dim, cfg.hidden_width, raw.spec.num_classes,
                              cfg.seed)
    moving = [k for k in expt.PARAM_KEYS
              if not (cfg.freeze_features and k in expt.FEATURE_KEYS)]

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

    @pytest.mark.parametrize("alg,beta", SPLIT_CASES)
    def test_frozen_batch_evaluates_the_head_on_cached_features(self, alg, beta):
        x, labels, pos, n_groups = expt._fit_batch(expt.make_dataset(SMALL_SPEC))
        cfg = small_cfg(algorithm=alg, beta=beta)
        batch = expt.make_batch(x, labels, pos, n_groups, 3)
        p = expt.init_params(SMALL_SPEC.input_dim, cfg.hidden_width, 3, seed=0)
        frozen = expt.frozen_batch(batch, p, cfg)
        rng = np.random.default_rng(5)
        for _ in range(3):
            moved = dict(p, W3=p["W3"] + rng.normal(0, 0.5, p["W3"].shape),
                         b3=p["b3"] + rng.normal(0, 0.5, p["b3"].shape))
            obj, state = expt.objective(moved, frozen, cfg)
            grads = expt.objective_gradient(state, frozen, cfg)
            ref_obj, ref_grads = _fused_objective_and_grad(moved, x, labels, pos, n_groups, 3,
                                                           cfg)
            assert obj == ref_obj
            _assert_same_bits(grads, {k: ref_grads[k] for k in ("W3", "b3")})

    def test_condinv_grad_adds_shares_into_zeroed_rows(self):
        """A class's share that underflows to -0.0 lands as 0.0, as
        ``grad[idx] += share`` on zeroed rows leaves it."""
        labels = np.zeros(4, dtype=int)
        batch = expt.make_batch(np.zeros((4, 2)), labels, np.array([0, 0, 1, 1]), 2, 1)
        ms = (np.array([[-5e-324, 0.0]]),)  # centred codes are +-0.5: shares -0.0 and 0.0
        h2 = np.ones((4, 1))
        ref = np.zeros_like(h2)
        for (idx, dc), m in zip(batch.classes, ms):
            share = dc @ (2.0 * m.T) / idx.size
            assert np.signbit(share).any() and not share.any()
            ref[idx] += share
        ref = ref * expt.PENALTY_SCALE
        got = expt._condinv_grad(h2, batch, ms)
        assert got.tobytes() == ref.tobytes()


class TestTrain:
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
        mc = MetricConfig(target_role=ROLE_VALID)
        diags = []
        for i in range(3):
            ds = expt.export_representations(model.checkpoints[i], raw)
            diags.append(diagnose(ds, model.head_probe(i), mc))
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
        parameters along their gradient."""
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
                base, direction = params, grads
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
        ds = expt.export_representations(model, raw)
        path = tmp_path / "reps.bin"
        save_dump(ds, path, FORMAT_BINARY)
        ds2 = load_dump(path, FORMAT_BINARY)
        mc = MetricConfig(target_role=ROLE_VALID)
        a = diagnose(ds, model.head_probe(), mc)
        b = diagnose(ds2, model.head_probe(), mc)
        for f in ("e0_prime", "e1_prime", "e2_prime", "e3_prime",
                  "d0_prime", "d1_prime", "d2_prime"):
            assert abs(getattr(a, f) - getattr(b, f)) <= 1e-9


class TestSweepAndTrajectory:
    def test_single_beta_erm_sweep(self):
        raw = expt.make_dataset(SMALL_SPEC)
        rows = expt.sweep_beta(raw, "erm", [0.0], small_cfg(),
                               MetricConfig(target_role=ROLE_VALID))
        assert len(rows) == 1
        assert rows[0].beta == 0.0

    def test_empty_grid_rejected(self):
        raw = expt.make_dataset(SMALL_SPEC)
        with pytest.raises(ValueError, match="nonempty"):
            expt.sweep_beta(raw, "erm", [], small_cfg())

    def test_sweep_deterministic(self):
        raw = expt.make_dataset(SMALL_SPEC)
        mc = MetricConfig(target_role=ROLE_VALID)
        r1 = expt.sweep_beta(raw, "cond-invariance", [0.5, 2.0], small_cfg(), mc)
        r2 = expt.sweep_beta(raw, "cond-invariance", [0.5, 2.0], small_cfg(), mc)
        for a, b in zip(r1, r2):
            assert a.diagnosis == b.diagnosis

    def test_trajectory_zero_lr_identical_and_correlation_undefined(self):
        raw = expt.make_dataset(SMALL_SPEC)
        cfg = small_cfg(epochs=2, learning_rate=0.0)
        res = expt.trajectory(raw, cfg, MetricConfig(target_role=ROLE_VALID))
        assert len(res.diagnoses) == 2
        assert res.diagnoses[0] == res.diagnoses[1]
        assert res.e3_d1_correlation is None

    def test_trajectory_matches_recomputed_diagnoses(self, tmp_path):
        raw = expt.make_dataset(SMALL_SPEC)
        cfg = small_cfg(epochs=3)
        res = expt.trajectory(raw, cfg, MetricConfig(target_role=ROLE_VALID))
        model = expt.train(raw, cfg)
        for i, diag in enumerate(res.diagnoses):
            ds = expt.export_representations(model.checkpoints[i], raw)
            path = tmp_path / f"cp{i}.bin"
            save_dump(ds, path, FORMAT_BINARY)
            again = diagnose(load_dump(path, FORMAT_BINARY), model.head_probe(i),
                             MetricConfig(target_role=ROLE_VALID))
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
