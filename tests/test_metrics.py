import copy
import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgdx import metrics
from dgdx.core import (
    DatasetError,
    DomainMeta,
    LinearProbe,
    RepresentationDataset,
    ROLE_TEST,
    ROLE_TRAIN,
    ROLE_VALID,
    SPLIT_FIT,
    SPLIT_HOLDOUT,
)
from dgdx.metrics import (
    ConstantSeriesError,
    MetricConfig,
    all_probes_converged,
    csv_header,
    csv_row,
    d0_prime,
    d1_prime,
    d2_prime,
    decompose,
    diagnose,
    e0_prime,
    e1_prime,
    e2_prime,
    e3_prime,
    pearson,
    _rows,
    _score,
    _target_ids,
    _train_ids,
    _union_ids,
)
from dgdx.probe import (
    FiniteProbeFamily,
    exact_best_error,
    fit_probe,
    zero_one_error,
)
from dgdx.scenarios import KINDS, ScenarioSpec, generate

from conftest import random_dataset
from support import constant_probe


def build_dataset(cells, dim=2, num_classes=2, per_cell=80, std=0.05, seed=0, roles=None):
    """cells: {(domain_id, label): center or [centers]}; roles: {domain_id: role}."""
    rng = np.random.default_rng(seed)
    domain_ids = sorted({d for d, _ in cells})
    roles = roles or {}
    domains = tuple(
        DomainMeta(d, f"d{d}", roles.get(d, ROLE_TRAIN)) for d in domain_ids
    )
    ids, splits, labels, zs = [], [], [], []
    for (d, y), centers in sorted(cells.items()):
        if not isinstance(centers, list):
            centers = [centers]
        per_center = per_cell // len(centers)
        for c in centers:
            mean = np.zeros(dim)
            mean[: len(c)] = c
            pts = mean + rng.normal(0, std, size=(per_center, dim))
            for i in range(per_center):
                ids.append(d)
                splits.append(0 if i < per_center // 2 else 1)
                labels.append(y)
            zs.append(pts)
    return RepresentationDataset(dim, num_classes, domains, ids, splits, labels,
                                 np.vstack(zs).astype(np.float32))


def y_rule_head(scale=4.0):
    return LinearProbe(np.array([[0.0, 0.0], [0.0, scale]]), np.zeros(2))


class TestGeneralizationMetrics:
    def test_e0_perfect_head(self):
        ds = build_dataset({(0, 0): (0, -1), (0, 1): (0, 1), (1, 0): (1, -1), (1, 1): (1, 1),
                            (2, 0): (2, -1), (2, 1): (2, 1)}, roles={2: ROLE_TEST})
        assert e0_prime(ds, y_rule_head()) == 0.0

    def test_e0_constant_head_balanced(self):
        ds = build_dataset({(0, 0): (0, -1), (0, 1): (0, 1), (1, 0): (1, -1), (1, 1): (1, 1),
                            (2, 0): (2, -1), (2, 1): (2, 1)}, roles={2: ROLE_TEST})
        head = constant_probe(0, 2, 2)
        assert e0_prime(ds, head) == pytest.approx(0.5)

    def test_e0_equals_per_domain_recount(self):
        ds = random_dataset(11, n_train=3, n_test=1, dim=3)
        rng = np.random.default_rng(0)
        head = LinearProbe(rng.normal(size=(2, 3)), rng.normal(size=2))
        errs = []
        for dm in ds.domains:
            if dm.role != ROLE_TRAIN:
                continue
            m = (ds.domain_ids == dm.id) & (ds.splits == SPLIT_HOLDOUT)
            errs.append(zero_one_error(head, ds.z[m].astype(float), ds.labels[m]))
        assert e0_prime(ds, head) == pytest.approx(np.mean(errs))

    def test_e1_separable_targets(self):
        ds = build_dataset({(0, 0): (0, -1), (0, 1): (0, 1), (1, 0): (1, -1), (1, 1): (1, 1),
                            (2, 0): (5, -1), (2, 1): (5, 1)}, roles={2: ROLE_TEST})
        assert e1_prime(ds, MetricConfig())[0] <= 0.01

    def test_e1_interleaved_targets_near_half(self):
        ds = build_dataset(
            {(0, 0): (0, -1), (0, 1): (0, 1), (1, 0): (1, -1), (1, 1): (1, 1),
             (2, 0): (5, 0), (2, 1): (5, 0), (3, 0): (6, 0), (3, 1): (6, 0)},
            roles={2: ROLE_TEST, 3: ROLE_TEST}, per_cell=200,
        )
        assert e1_prime(ds, MetricConfig())[0] == pytest.approx(0.5, abs=0.06)

    def test_e2_identical_domains_separable(self):
        cells = {(d, y): (0, 2 * y - 1) for d in range(3) for y in range(2)}
        ds = build_dataset(cells, roles={2: ROLE_TEST})
        assert e2_prime(ds, MetricConfig())[0] <= 0.01

    def test_e2_equals_e1_when_test_matches_train(self):
        # two training domains drawn from the same distribution as the single
        # test domain: the joint fit and the target-only fit see the same task
        cells = {(d, y): (0, 2 * y - 1) for d in range(3) for y in range(2)}
        ds = build_dataset(cells, std=0.8, per_cell=160, roles={2: ROLE_TEST})
        cfg = MetricConfig()
        assert e2_prime(ds, cfg)[0] == pytest.approx(e1_prime(ds, cfg)[0], abs=0.02)

    def test_fitted_metric_keeps_the_stage_with_lower_holdout_error(self):
        # overlapping classes: the 0-1 stage moves the probe, and the metric
        # reports whichever of the two probes does better on the holdout split
        cells = {(d, y): (0, 2 * y - 1) for d in range(3) for y in range(2)}
        ds = build_dataset(cells, std=0.8, per_cell=160, roles={2: ROLE_TEST})
        fit = (ds.domain_ids == 2) & (ds.splits == SPLIT_FIT)
        held = (ds.domain_ids == 2) & (ds.splits == SPLIT_HOLDOUT)
        probe, rec = fit_probe(ds.z[fit].astype(np.float64), ds.labels[fit], 2,
                               sample_weight=np.full(fit.sum(), 1.0 / fit.sum()))
        errs = [zero_one_error(p, ds.z[held].astype(np.float64), ds.labels[held])
                for p in (probe, rec.start)]
        assert errs[0] != errs[1]
        value, meta = e1_prime(ds, MetricConfig())
        assert value == min(errs)
        assert meta["kept"] == ("logistic" if errs[1] < errs[0] else "zero_one")

    def test_e3_constant_head(self):
        ds = build_dataset({(0, 0): (0, -1), (0, 1): (0, 1), (1, 0): (1, -1), (1, 1): (1, 1),
                            (2, 0): (2, -1), (2, 1): (2, 1)}, roles={2: ROLE_TEST})
        assert e3_prime(ds, constant_probe(1, 2, 2), MetricConfig()) == pytest.approx(0.5)

    def test_target_role_valid_selects_validation_domains(self):
        ds = build_dataset(
            {(0, 0): (0, -1), (0, 1): (0, 1), (1, 0): (1, -1), (1, 1): (1, 1),
             (2, 0): (2, 1), (2, 1): (2, -1)},  # flipped validation domain
            roles={2: ROLE_VALID},
        )
        head = y_rule_head()
        cfg = MetricConfig(target_role=ROLE_VALID)
        assert e3_prime(ds, head, cfg) == pytest.approx(1.0)
        with pytest.raises(DatasetError, match="role 'test'"):
            e3_prime(ds, head, MetricConfig(target_role=ROLE_TEST))


class TestInvarianceMetrics:
    def test_d0_identical_training_domains(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(40, 2)).astype(np.float32)
        cells_pts = np.vstack([pts, pts])
        ids = np.array([0] * 40 + [1] * 40)
        splits = np.tile(np.array([0] * 20 + [1] * 20, dtype=np.uint8), 2)
        labels = np.tile(np.array([0, 1] * 20), 2)
        domains = (DomainMeta(0, "a", ROLE_TRAIN), DomainMeta(1, "b", ROLE_TRAIN),
                   DomainMeta(2, "t", ROLE_TEST))
        extra = rng.normal(size=(4, 2)).astype(np.float32)
        all_z = np.vstack([cells_pts, extra])
        ids = np.concatenate([ids, [2, 2, 2, 2]])
        splits = np.concatenate([splits, [0, 0, 1, 1]]).astype(np.uint8)
        labels = np.concatenate([labels, [0, 1, 0, 1]])
        ds = RepresentationDataset(2, 2, domains, ids, splits, labels, all_z)
        assert abs(d0_prime(ds, MetricConfig())[0]) <= 0.05

    def test_d0_fully_separated(self):
        ds = build_dataset({(0, 0): (0, -1), (0, 1): (0, 1), (1, 0): (5, -1), (1, 1): (5, 1),
                            (2, 0): (9, -1), (2, 1): (9, 1)}, roles={2: ROLE_TEST})
        assert d0_prime(ds, MetricConfig())[0] == pytest.approx(0.5, abs=0.01)

    def test_d0_two_coincident_one_separated_is_third(self):
        cells = {(0, 0): (0, -1), (0, 1): (0, 1),
                 (1, 0): (0, -1), (1, 1): (0, 1),
                 (2, 0): (5, -1), (2, 1): (5, 1),
                 (3, 0): (9, -1), (3, 1): (9, 1)}
        ds = build_dataset(cells, per_cell=200, roles={3: ROLE_TEST})
        assert d0_prime(ds, MetricConfig())[0] == pytest.approx(1 / 3, abs=0.05)

    def test_d1_identical_domains_near_zero(self):
        cells = {(d, y): (0, 2 * y - 1) for d in range(4) for y in range(2)}
        ds = build_dataset(cells, per_cell=200, roles={3: ROLE_TEST})
        assert abs(d1_prime(ds, MetricConfig())[0]) <= 0.05

    def test_d1_all_separated(self):
        cells = {(d, y): (4 * d, 2 * y - 1) for d in range(4) for y in range(2)}
        ds = build_dataset(cells, roles={3: ROLE_TEST})
        assert d1_prime(ds, MetricConfig())[0] == pytest.approx(0.75, abs=0.01)

    def test_d1_proxy_mode_matches_d0_baseline(self):
        # 3 training domains (one of which gets dropped) plus 1 validation
        # domain: the probe sees 3 domains either way
        cells = {(d, y): (4 * d, 2 * y - 1) for d in range(4) for y in range(2)}
        ds = build_dataset(cells, roles={3: ROLE_VALID})
        cfg = MetricConfig(target_role=ROLE_VALID)
        assert d1_prime(ds, cfg)[0] == pytest.approx(2 / 3, abs=0.01)

    def test_d2_label_flipped_alignment(self):
        # unconditional marginals match everywhere, so d1' is near zero, but
        # conditioned on a class the training and test domains separate
        cells = {(0, 0): (0, 0), (0, 1): (4, 0),
                 (1, 0): (0, 0), (1, 1): (4, 0),
                 (2, 0): (4, 0), (2, 1): (0, 0)}
        ds = build_dataset(cells, per_cell=240, roles={2: ROLE_TEST})
        cfg = MetricConfig()
        assert abs(d1_prime(ds, cfg)[0]) <= 0.05
        assert d2_prime(ds, cfg)[0] >= 0.3

    def test_d2_missing_cell_is_error(self):
        ds = random_dataset(3)
        labels = ds.labels.copy()
        # erase class 1 from domain 0 by relabeling to class 0
        labels[(ds.domain_ids == 0) & (labels == 1)] = 0
        broken = RepresentationDataset(ds.dim, ds.num_classes, ds.domains, ds.domain_ids,
                                       ds.splits, labels, ds.z)
        with pytest.raises(DatasetError, match="class-conditional"):
            d2_prime(broken, MetricConfig())

    def test_d2_single_class_equals_d1(self):
        ds = random_dataset(4, num_classes=1)
        cfg = MetricConfig()
        assert d2_prime(ds, cfg)[0] == pytest.approx(d1_prime(ds, cfg)[0], abs=1e-12)


class TestDecompose:
    def test_arithmetic_example(self):
        d = decompose(0.1, 0.2, 0.35, 0.5, 0.0, 0.0, 0.0)
        assert (d.e0, d.e1, d.e2, d.e3) == pytest.approx((0.1, 0.1, 0.15, 0.15))

    def test_zero_case(self):
        d = decompose(0, 0, 0, 0, 0, 0, 0)
        assert d.e0 == d.e1 == d.e2 == d.e3 == 0.0
        assert d.negative_component_flags == ()

    def test_negative_component_flagged(self):
        d = decompose(0.05, 0.03, 0.2, 0.6, 0, 0, 0)
        assert d.e1 == pytest.approx(-0.02)
        assert "e1" in d.negative_component_flags

    def test_identities_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            e = np.sort(rng.uniform(0, 1, size=4))
            dvals = rng.uniform(-0.3, 0.8, size=3)
            diag = decompose(e[0], e[1], e[2], e[3], dvals[0], dvals[1], dvals[2])
            assert diag.e0 + diag.e1 + diag.e2 + diag.e3 == diag.e3_prime
            assert diag.d0 + diag.d1 + diag.d2 == diag.d2_prime

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            decompose(float("nan"), 0, 0, 0, 0, 0, 0)

    def test_rejects_out_of_range_error(self):
        with pytest.raises(ValueError, match="outside"):
            decompose(1.5, 0, 0, 0, 0, 0, 0)


class TestPearson:
    def test_affine_is_one(self):
        a = np.arange(10.0)
        assert pearson(a, 2 * a + 1) == 1.0

    def test_negation_is_minus_one(self):
        a = np.arange(10.0)
        assert pearson(a, -a) == -1.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=10)
        b = rng.normal(size=10)
        da, db = a - a.mean(), b - b.mean()
        direct = float(np.sum(da * db) / math.sqrt(np.sum(da * da) * np.sum(db * db)))
        assert pearson(a, b) == pytest.approx(direct, abs=1e-12)

    def test_constant_series_raises(self):
        with pytest.raises(ConstantSeriesError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_checks(self):
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])


def _fig_success_dataset(seed=0):
    cells = {(d, y): (d, y - 0.5) for d in range(5) for y in range(2)}
    return build_dataset(cells, per_cell=120, std=0.08, seed=seed,
                         roles={3: ROLE_TEST, 4: ROLE_TEST})


class TestDiagnose:
    def test_success_geometry_small_components(self):
        ds = _fig_success_dataset()
        diag = diagnose(ds, y_rule_head())
        for v in (diag.e0, diag.e1, diag.e2, diag.e3):
            assert v <= 0.05

    def test_underfit_geometry_dominant_e0(self):
        cells = {(d, y): (d, 0) for d in range(5) for y in range(2)}
        ds = build_dataset(cells, per_cell=120, roles={3: ROLE_TEST, 4: ROLE_TEST})
        diag = diagnose(ds, y_rule_head())
        assert diag.e0 >= 0.4

    def test_deterministic(self):
        ds = _fig_success_dataset()
        d1 = diagnose(ds, y_rule_head())
        d2 = diagnose(ds, y_rule_head())
        assert d1 == d2

    def test_identities_and_flags_present(self):
        ds = random_dataset(8, n_train=3, n_test=2, dim=4, num_classes=3, per_cell=10)
        head = LinearProbe(np.random.default_rng(1).normal(size=(3, 4)), np.zeros(3))
        diag = diagnose(ds, head)
        assert diag.e0 + diag.e1 + diag.e2 + diag.e3 == diag.e3_prime
        assert diag.d0 + diag.d1 + diag.d2 == diag.d2_prime
        assert set(diag.probe_meta) == {"e1", "e2", "d0", "d1", "d2"}
        assert isinstance(all_probes_converged(diag), bool)

    def test_shuffle_within_cells_invariant(self):
        ds = _fig_success_dataset()
        rng = np.random.default_rng(3)
        order = np.arange(ds.num_samples)
        for dm in ds.domains:
            for split in (0, 1):
                idx = np.flatnonzero((ds.domain_ids == dm.id) & (ds.splits == split))
                order[idx] = rng.permutation(idx)
        shuffled = RepresentationDataset(ds.dim, ds.num_classes, ds.domains,
                                         ds.domain_ids[order], ds.splits[order],
                                         ds.labels[order], ds.z[order])
        a = diagnose(ds, y_rule_head())
        b = diagnose(shuffled, y_rule_head())
        for f in ("e0_prime", "e1_prime", "e2_prime", "e3_prime",
                  "d0_prime", "d1_prime", "d2_prime"):
            assert getattr(a, f) == pytest.approx(getattr(b, f), abs=1e-8)

    def test_orthogonal_map_invariance(self):
        ds = _fig_success_dataset()
        theta = 0.7
        q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        shift = np.array([0.3, -1.2])
        z2 = (ds.z.astype(np.float64) @ q.T + shift).astype(np.float32)
        ds2 = RepresentationDataset(ds.dim, ds.num_classes, ds.domains, ds.domain_ids,
                                    ds.splits, ds.labels, z2)
        head = y_rule_head()
        head2 = LinearProbe(head.weights @ q.T, head.bias - head.weights @ q.T @ shift)
        a = diagnose(ds, head)
        b = diagnose(ds2, head2)
        for f in ("e0_prime", "e1_prime", "e2_prime", "e3_prime",
                  "d0_prime", "d1_prime", "d2_prime"):
            assert getattr(a, f) == pytest.approx(getattr(b, f), abs=1e-3)

    def test_probe_meta_layout(self):
        ds = random_dataset(8, n_train=3, n_test=2, num_classes=3, per_cell=10)
        head = LinearProbe(np.random.default_rng(1).normal(size=(3, 3)), np.zeros(3))
        meta = diagnose(ds, head).probe_meta
        assert set(meta) == {"e1", "e2", "d0", "d1", "d2"}
        assert set(meta["d2"]) == {"class0", "class1", "class2"}
        keys = {"iterations", "objective", "grad_max", "converged", "n_points", "mode", "kept"}
        for probe_meta in [meta[k] for k in ("e1", "e2", "d0", "d1")] + list(meta["d2"].values()):
            assert set(probe_meta) == keys
            assert probe_meta["mode"] == "fit"

    def test_all_probes_converged_reads_every_probe(self):
        ds = random_dataset(8, n_train=3, n_test=2, num_classes=3, per_cell=10)
        head = LinearProbe(np.random.default_rng(1).normal(size=(3, 3)), np.zeros(3))
        diag = diagnose(ds, head)
        assert all_probes_converged(diag) is True
        for path in (("e1",), ("e2",), ("d0",), ("d1",), ("d2", "class0"), ("d2", "class2")):
            meta = copy.deepcopy(diag.probe_meta)
            probe_meta = meta
            for key in path:
                probe_meta = probe_meta[key]
            probe_meta["converged"] = False
            assert all_probes_converged(replace(diag, probe_meta=meta)) is False

    def test_calls_each_metric_global_once(self, monkeypatch):
        # the benchmark times each metric by wrapping its module global
        ds = random_dataset(8, n_train=3, n_test=2, num_classes=3, per_cell=10)
        head = LinearProbe(np.random.default_rng(1).normal(size=(3, 3)), np.zeros(3))
        expected = diagnose(ds, head)
        names = ("e0_prime", "e1_prime", "e2_prime", "e3_prime", "d0_prime", "d1_prime",
                 "d2_prime")
        counts = dict.fromkeys(names, 0)

        def count(name):
            original = getattr(metrics, name)

            def wrapper(*args):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(metrics, name, wrapper)

        for name in names:
            count(name)
        assert diagnose(ds, head) == expected
        assert counts == dict.fromkeys(names, 1)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_identities_property(self, seed):
        ds = random_dataset(seed, n_train=2, n_test=1, per_cell=6)
        head = LinearProbe(np.random.default_rng(seed).normal(size=(2, 3)), np.zeros(2))
        diag = diagnose(ds, head)
        assert diag.e0 + diag.e1 + diag.e2 + diag.e3 == diag.e3_prime
        assert diag.d0 + diag.d1 + diag.d2 == diag.d2_prime


def _random_family_provider(seed, extra_probes=24):
    def provider(num_outputs, z):
        rng = np.random.default_rng((seed, num_outputs))
        probes = [constant_probe(k, num_outputs, z.shape[1]) for k in range(num_outputs)]
        for _ in range(extra_probes):
            probes.append(LinearProbe(rng.normal(size=(num_outputs, z.shape[1])),
                                      rng.normal(size=num_outputs)))
        return FiniteProbeFamily.from_probes(probes)

    return provider


def _exact_error(ds, family_of, ids, targets, label=None, scored=None):
    """The holdout error, on the domains ``scored`` (default ``ids``), of the
    member of ``family_of(num_outputs, z)`` with the least error on the
    holdout rows of the domains ``ids``; the rows, weights and scores are the
    metric engine's own, so the paper's orderings must hold exactly."""
    z, t, w, _ = _rows(ds, ids, SPLIT_HOLDOUT, targets, label)
    family = family_of(ds.num_classes if targets == "label" else len(ids), z)
    _, idx = exact_best_error(family, z, t, weights=w)
    held = _rows(ds, scored or ids, SPLIT_HOLDOUT, targets, label)
    return _score(family[idx], held, targets)


class TestExactFamilyMode:
    """Exact search over a finite family, on the rows each metric reads."""

    def _balanced_dataset(self, seed):
        # equal class counts in every (domain, split) cell
        return random_dataset(seed, n_train=2, n_test=2, dim=2, num_classes=2, per_cell=8)

    def _d_primes(self, ds, family_of):
        train, union = sorted(_train_ids(ds)), _union_ids(ds, MetricConfig())
        d0 = 1.0 - _exact_error(ds, family_of, train, "domain") - 1.0 / len(train)
        d1 = 1.0 - _exact_error(ds, family_of, union, "domain") - 1.0 / len(union)
        d2 = np.mean([1.0 - _exact_error(ds, family_of, union, "domain", label=y)
                      - 1.0 / len(union) for y in range(ds.num_classes)])
        return d0, d1, d2

    @pytest.mark.parametrize("seed", range(8))
    def test_orderings_hold_exactly(self, seed):
        ds = self._balanced_dataset(seed)
        family_of = _random_family_provider(seed)
        target = _target_ids(ds, MetricConfig())
        e1 = _exact_error(ds, family_of, target, "label")
        e2 = _exact_error(ds, family_of, sorted(_train_ids(ds)) + target, "label", scored=target)
        assert e1 <= e2 + 1e-12
        _, d1, d2 = self._d_primes(ds, family_of)
        assert d1 <= d2 + 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_e2_le_e3_for_train_optimal_head(self, seed):
        ds = self._balanced_dataset(seed)
        family_of = _random_family_provider(seed)
        train, target = sorted(_train_ids(ds)), _target_ids(ds, MetricConfig())
        z, ys, w, _ = _rows(ds, train, SPLIT_HOLDOUT, "label")
        family = family_of(ds.num_classes, z)
        _, idx = exact_best_error(family, z, ys, weights=w)
        e2 = _exact_error(ds, family_of, train + target, "label", scored=target)
        assert e2 <= e3_prime(ds, family[idx], MetricConfig()) + 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_d_metrics_nonnegative_with_constant_probes(self, seed):
        ds = self._balanced_dataset(seed)
        for value in self._d_primes(ds, _random_family_provider(seed)):
            assert value >= -1e-12


class TestCsvEmission:
    def test_header_and_row_align(self):
        diag = decompose(0.1, 0.2, 0.3, 0.4, 0.0, 0.1, 0.2)
        header = csv_header(("beta_or_epoch",))
        row = csv_row(diag, ("7",))
        assert len(header) == len(row)
        assert header[:5] == ["beta_or_epoch", "e0", "e1", "e2", "e3"]
        assert row[0] == "7"


# -- pinned diagnoses -------------------------------------------------------------


def _pcg_dump():
    """A 64-d, 2-class dump (2 training domains, 1 test) drawn with numpy
    alone; every fit has 130 or more parameters, so each takes the CG path."""
    rng = np.random.default_rng(64)
    dim, per_cell = 64, 60
    shift = rng.normal(0.0, 0.4, size=(3, 2, dim))
    ids, splits, labels, zs = [], [], [], []
    for d in range(3):
        for y in range(2):
            ids += [d] * per_cell
            splits += [0] * (per_cell * 4 // 5) + [1] * (per_cell // 5)
            labels += [y] * per_cell
            zs.append(shift[d, y] + rng.normal(size=(per_cell, dim)))
    domains = (DomainMeta(0, "a", ROLE_TRAIN), DomainMeta(1, "b", ROLE_TRAIN),
               DomainMeta(2, "t", ROLE_TEST))
    ds = RepresentationDataset(dim, 2, domains, ids, splits, labels,
                               np.vstack(zs).astype(np.float32))
    return ds, LinearProbe(rng.normal(size=(2, dim)), np.zeros(2))


def _pinned_cases():
    for kind in KINDS:
        ds, exp = generate(ScenarioSpec(kind=kind, seed=0))
        yield kind, ds, exp.head
    yield ("pcg-64d",) + _pcg_dump()


def _without_solver_bits(node):
    """``node`` without the ``objective`` and ``grad_max`` entries, whose last
    bits depend on the BLAS thread count."""
    if isinstance(node, dict):
        return {k: _without_solver_bits(v) for k, v in node.items()
                if k not in ("objective", "grad_max")}
    return node


# each case's diagnosis.json fields, less the solver's last bits, hashed
_PINNED_DIAGNOSIS_SHA256 = {
    "underfit": "4479040816b05b76ec37c6df3461187515b8c1c93701c9221265a7af3b4f0f57",
    "test-inseparable": "ef9385941127980c4723ddb2c2037bef35180be8e0e3ea00a54c869e0165697d",
    "misaligned": "319bc981c0f71308cdb5625adad373b58bd908f5c32d958d8f442dfcd5e08b46",
    "head-noninvariant": "057ea8ca44230708ef4f9f44f02a57fbf8ddc739caddb981af4deda4b320f687",
    "success": "ecea3d9483d5f263c3bb75238935b62e9b518a79782e3c02c1f8a3db773d4988",
    "inv-train-only-a": "0e752260e054d150eb750e36887691d4f7ee6b05d5490ba5e2ee8c48995589ee",
    "inv-train-only-b": "8d8645640b13191850e0caeb9e2e4f331eb745c613e3ee98d918bdb711830e36",
    "inv-train-only-c": "876f5765f62ced7a0dd158b0ba410b9bfc05c60e0c129cde88c1aa7e83ef6b16",
    "inv-train-only-d": "359f8988e14aca157461de2babc96f5efcc9c610a81b398a9ef8c23d7b2adba8",
    "inv-train-only-e": "5a11934d1b6a1317b96762b3b9eacac6595f89dcdea8f80b309951c583e08e1f",
    "inv-all-a": "b32c89e016f3c77a3d792ad28482a5e18fa6db8ebe90ead291b939084d70e1b2",
    "inv-all-b": "ff7ccb2afcf165b60c182dadce35763c50478f90cbf65f30941ceca6752c9839",
    "inv-all-c": "67d9b8935224da0e6e02c9cb00839dc5534ad2ef4d23f477a3afa562b2e8f43f",
    "inv-all-d": "e89fecd987005d440b4aac9af9b3d780e839e3deb7a00283adcc5e8ae7fccc5f",
    "label-flipped": "5bd3fa9db1d8d1d33f9462876a182acf3174931fb282b8d1dd07eae4c196afea",
    "pcg-64d": "060cf0319e72571135545cc2df8e6df0e0a4b641962f2a5ce1cb5523f3f6f91f",
}


def test_diagnoses_are_pinned():
    digests = {}
    for name, ds, head in _pinned_cases():
        diag = diagnose(ds, head, MetricConfig(target_role=ROLE_TEST))
        view = _without_solver_bits(diag.to_dict())
        digests[name] = hashlib.sha256(json.dumps(view, sort_keys=True).encode()).hexdigest()
    assert digests == _PINNED_DIAGNOSIS_SHA256


def _reheaded(seed, order, roles):
    """``random_dataset``'s seven domains (ids 0-6, three classes) under a
    header that lists them in ``order`` with ``roles``; the rows are unchanged."""
    ds = random_dataset(seed, n_train=4, n_test=3, num_classes=3)
    domains = tuple(DomainMeta(d, f"d{d}", role) for d, role in zip(order, roles))
    return RepresentationDataset(ds.dim, ds.num_classes, domains, ds.domain_ids,
                                 ds.splits, ds.labels, ds.z)


_R, _T, _V = ROLE_TRAIN, ROLE_TEST, ROLE_VALID
# headers out of id order with the roles mixed: (ids in header order, their roles, target role)
_DOMAIN_ORDERS = {
    "reversed": ((6, 5, 4, 3, 2, 1, 0), (_T, _T, _T, _R, _R, _R, _R), ROLE_TEST),
    "interleaved": ((5, 2, 6, 0, 3, 4, 1), (_T, _R, _T, _R, _T, _R, _R), ROLE_TEST),
    "valid": ((6, 2, 5, 0, 3, 4, 1), (_V, _R, _V, _R, _V, _R, _R), ROLE_VALID),
}

# each case's diagnosis.json fields, less the solver's last bits, hashed
_PINNED_ORDER_SHA256 = {
    "reversed-0": "5c39e71949089f2d45ac54a7a6cbd38a89477ff64054abec1329ec33ff8ba6c6",
    "reversed-1": "0c8aea64276688ca11f5f4ad49ed12b9042ef8cc799ae61300cbc033e0186e39",
    "reversed-2": "88d0102e15612ffa6ddf6810a70b945850be2074b57b66b111ce10ba3c4d59c3",
    "reversed-3": "b15d349fbfa2dd6cd03fdc587d5a0a6c10d07930441a79ccfa9de854fd3b1fe8",
    "reversed-4": "9d9f0bbc3c589517a0ca0335a5aa2b89f9b51d293091fc275137f7417af39266",
    "reversed-5": "18596eefcdbf2c62ae4f70a015926088a4f2413e2a03189240caaac1b0d2d2f8",
    "reversed-6": "1ab37b62cbcaee8381403b4fac880e5866058a3ef8dab6ce4244262e03dd9b48",
    "reversed-7": "b9cf24557997f9be4d8872d06a2bb9e0e1ac806c5e2b4c20b1fec8de0d692a13",
    "interleaved-0": "4d7454db64a49a152cdc8cec226194ffef6f692af8a28151e7f36d9f4b265d00",
    "interleaved-1": "b4e60c046f67a212f4ed555747d6601472e93ca62a85e4e1dfd7b93581e796f5",
    "interleaved-2": "b5ceffaa9e4615f5baeb48a4de76e155d77c4d542df4580d60275c88e866fda0",
    "interleaved-3": "b89075c73eb09c66a4ea7286274336a2dccf77e10931457c54d6f4c4fa2a1a75",
    "interleaved-4": "0f45fc11e5bb88713628b2bfcc29670d3356dc62ef30eeaf959686aca94bcbf4",
    "interleaved-5": "032aea62d1dd1d549accd9b9dc47da0def36a056db008f846a7bd95f17110d99",
    "interleaved-6": "7111408ade0b59c813d64ddcfc6da9c089d190ff0b8728c299aeeccf35f421f0",
    "interleaved-7": "abfd6b549c7b5884a89c780ea76df2a1af5ff0d5ba582fd6e1b1a54a0f2af4da",
    "valid-0": "58cb8123a230b829c9034c84bb983b41290b65608b4c27ed4004e1fe67048630",
    "valid-1": "a23ea42e4c2d49aae55b896dff049d34e0439ebbb553b227e391b63bc52cb325",
    "valid-2": "8a27025618816601292a645629a9a934055f2ed0a1cea0226e49d139b4e6113d",
    "valid-3": "8940f60f9aff2d7c2b4951172ddb3abc7f89cef7a74485c0fb07f8a853e4cd84",
    "valid-4": "f8ff8176be1976569cec3ffffd492287da946c6f896c919fff0a917f310d465f",
    "valid-5": "34dd0c3cd18a147df97a920ad04e3c73aea20041a2d8dd869c5a8e8fdf8d0958",
    "valid-6": "6241e0098f833f9b17a9864e9d563cd5549bf47b8278f053a320cb7a24f7b413",
    "valid-7": "ff5d7c999b4f19755f2ca9a1778b74d030e105f5a1f0a2468f3fbe2b90e14114",
}


def test_domain_order_is_pinned():
    # e0', e1' and e3' take the header's order, d0' and the union id order:
    # a slip between the two changes the last bits, which ascending headers hide
    # (e2''s joint fit order moves only the solver bits, which the view leaves out)
    digests = {}
    for name, (order, roles, target) in _DOMAIN_ORDERS.items():
        for seed in range(8):
            ds = _reheaded(seed, order, roles)
            head = LinearProbe(np.random.default_rng(seed).normal(size=(3, 3)), np.zeros(3))
            diag = diagnose(ds, head, MetricConfig(target_role=target))
            view = _without_solver_bits(diag.to_dict())
            digests[f"{name}-{seed}"] = hashlib.sha256(
                json.dumps(view, sort_keys=True).encode()).hexdigest()
    assert digests == _PINNED_ORDER_SHA256
