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
    _error,
    _fit,
    _rows,
    _select,
    _target_ids,
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
from support import constant_probe, without_solver_bits


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
        assert e1_prime(ds, ROLE_TEST)[0] <= 0.01

    def test_e1_interleaved_targets_near_half(self):
        ds = build_dataset(
            {(0, 0): (0, -1), (0, 1): (0, 1), (1, 0): (1, -1), (1, 1): (1, 1),
             (2, 0): (5, 0), (2, 1): (5, 0), (3, 0): (6, 0), (3, 1): (6, 0)},
            roles={2: ROLE_TEST, 3: ROLE_TEST}, per_cell=200,
        )
        assert e1_prime(ds, ROLE_TEST)[0] == pytest.approx(0.5, abs=0.06)

    def test_e2_identical_domains_separable(self):
        cells = {(d, y): (0, 2 * y - 1) for d in range(3) for y in range(2)}
        ds = build_dataset(cells, roles={2: ROLE_TEST})
        assert e2_prime(ds, ROLE_TEST)[0] <= 0.01

    def test_e2_equals_e1_when_test_matches_train(self):
        # two training domains drawn from the same distribution as the single
        # test domain: the joint fit and the target-only fit see the same task
        cells = {(d, y): (0, 2 * y - 1) for d in range(3) for y in range(2)}
        ds = build_dataset(cells, std=0.8, per_cell=160, roles={2: ROLE_TEST})
        assert e2_prime(ds, ROLE_TEST)[0] == pytest.approx(e1_prime(ds, ROLE_TEST)[0], abs=0.02)

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
        value, meta = e1_prime(ds, ROLE_TEST)
        assert value == min(errs)
        assert meta["kept"] == ("logistic" if errs[1] < errs[0] else "zero_one")

    def test_tied_candidates_keep_the_zero_one_probe(self, monkeypatch):
        # a 0-1 probe that is its logistic start scaled by 2 predicts the same rows exactly
        real_fit = metrics.fit_probe

        def fit_probe(*args, **kwargs):
            _, rec = real_fit(*args, **kwargs)
            return LinearProbe(2 * rec.start.weights, 2 * rec.start.bias), rec

        monkeypatch.setattr(metrics, "fit_probe", fit_probe)
        ds = random_dataset(3, n_train=2, n_test=2, per_cell=10)
        candidates, _ = _fit(ds, _target_ids(ds, ROLE_TEST), "label")
        assert list(candidates) == ["zero_one", "logistic"]
        value, meta = e1_prime(ds, ROLE_TEST)
        held = _rows(ds, _target_ids(ds, ROLE_TEST), SPLIT_HOLDOUT, "label")
        assert value == _error(candidates["logistic"], held)
        assert meta["kept"] == "zero_one"

    def test_unmoved_zero_one_stage_gives_one_candidate(self):
        # separable fit rows: the logistic probe already fits them without error
        cells = {(d, y): (0, 2 * y - 1) for d in range(3) for y in range(2)}
        ds = build_dataset(cells, roles={2: ROLE_TEST})
        candidates, _ = _fit(ds, [2], "label")
        assert list(candidates) == ["zero_one"]
        assert _select(ds, [2], "label")[1]["kept"] == "zero_one"

    def test_e3_constant_head(self):
        ds = build_dataset({(0, 0): (0, -1), (0, 1): (0, 1), (1, 0): (1, -1), (1, 1): (1, 1),
                            (2, 0): (2, -1), (2, 1): (2, 1)}, roles={2: ROLE_TEST})
        assert e3_prime(ds, constant_probe(1, 2, 2), ROLE_TEST) == pytest.approx(0.5)

    def test_target_role_valid_selects_validation_domains(self):
        ds = build_dataset(
            {(0, 0): (0, -1), (0, 1): (0, 1), (1, 0): (1, -1), (1, 1): (1, 1),
             (2, 0): (2, 1), (2, 1): (2, -1)},  # flipped validation domain
            roles={2: ROLE_VALID},
        )
        head = y_rule_head()
        assert e3_prime(ds, head, ROLE_VALID) == pytest.approx(1.0)
        with pytest.raises(DatasetError, match="role 'test'"):
            e3_prime(ds, head, ROLE_TEST)

    @pytest.mark.parametrize("target", [ROLE_TRAIN, "Test", ""])
    def test_target_must_be_test_or_valid(self, target):
        ds = random_dataset(0)
        with pytest.raises(ValueError, match="target must be 'test' or 'valid'"):
            diagnose(ds, constant_probe(0, 2, ds.dim), target)


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
        assert abs(d0_prime(ds)[0]) <= 0.05

    def test_d0_fully_separated(self):
        ds = build_dataset({(0, 0): (0, -1), (0, 1): (0, 1), (1, 0): (5, -1), (1, 1): (5, 1),
                            (2, 0): (9, -1), (2, 1): (9, 1)}, roles={2: ROLE_TEST})
        assert d0_prime(ds)[0] == pytest.approx(0.5, abs=0.01)

    def test_d0_two_coincident_one_separated_is_third(self):
        cells = {(0, 0): (0, -1), (0, 1): (0, 1),
                 (1, 0): (0, -1), (1, 1): (0, 1),
                 (2, 0): (5, -1), (2, 1): (5, 1),
                 (3, 0): (9, -1), (3, 1): (9, 1)}
        ds = build_dataset(cells, per_cell=200, roles={3: ROLE_TEST})
        assert d0_prime(ds)[0] == pytest.approx(1 / 3, abs=0.05)

    def test_d1_identical_domains_near_zero(self):
        cells = {(d, y): (0, 2 * y - 1) for d in range(4) for y in range(2)}
        ds = build_dataset(cells, per_cell=200, roles={3: ROLE_TEST})
        assert abs(d1_prime(ds, ROLE_TEST)[0]) <= 0.05

    def test_d1_all_separated(self):
        cells = {(d, y): (4 * d, 2 * y - 1) for d in range(4) for y in range(2)}
        ds = build_dataset(cells, roles={3: ROLE_TEST})
        assert d1_prime(ds, ROLE_TEST)[0] == pytest.approx(0.75, abs=0.01)

    def test_d1_proxy_mode_matches_d0_baseline(self):
        # 3 training domains (one of which gets dropped) plus 1 validation
        # domain: the probe sees 3 domains either way
        cells = {(d, y): (4 * d, 2 * y - 1) for d in range(4) for y in range(2)}
        ds = build_dataset(cells, roles={3: ROLE_VALID})
        assert d1_prime(ds, ROLE_VALID)[0] == pytest.approx(2 / 3, abs=0.01)

    def test_d2_label_flipped_alignment(self):
        # unconditional marginals match everywhere, so d1' is near zero, but
        # conditioned on a class the training and test domains separate
        cells = {(0, 0): (0, 0), (0, 1): (4, 0),
                 (1, 0): (0, 0), (1, 1): (4, 0),
                 (2, 0): (4, 0), (2, 1): (0, 0)}
        ds = build_dataset(cells, per_cell=240, roles={2: ROLE_TEST})
        assert abs(d1_prime(ds, ROLE_TEST)[0]) <= 0.05
        assert d2_prime(ds, ROLE_TEST)[0] >= 0.3

    def test_d2_missing_cell_is_error(self):
        ds = random_dataset(3)
        labels = ds.labels.copy()
        # erase class 1 from domain 0 by relabeling to class 0
        labels[(ds.domain_ids == 0) & (labels == 1)] = 0
        broken = RepresentationDataset(ds.dim, ds.num_classes, ds.domains, ds.domain_ids,
                                       ds.splits, labels, ds.z)
        with pytest.raises(DatasetError, match="class-conditional"):
            d2_prime(broken, ROLE_TEST)

    def test_d2_single_class_equals_d1(self):
        ds = random_dataset(4, num_classes=1)
        assert d2_prime(ds, ROLE_TEST)[0] == pytest.approx(d1_prime(ds, ROLE_TEST)[0], abs=1e-12)


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
        keys = {"iterations", "objective", "grad_max", "converged", "n_points", "kept"}
        for probe_meta in [meta[k] for k in ("e1", "e2", "d0", "d1")] + list(meta["d2"].values()):
            assert set(probe_meta) == keys

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
    return _error(family[idx], held)


@given(seed=st.integers(0, 10_000), n_domains=st.integers(2, 4),
       num_classes=st.integers(2, 3), per_cell=st.sampled_from([6, 10, 14]),
       targets=st.sampled_from(["label", "domain"]), label=st.sampled_from([None, 0]))
@settings(max_examples=60, deadline=None)
def test_error_reduces_misses_as_zero_one_error_does(seed, n_domains, num_classes, per_cell,
                                                     targets, label):
    # bit for bit the mean of zero_one_error's per-domain values, for both target kinds
    ds = random_dataset(seed, n_train=n_domains, n_test=0, num_classes=num_classes,
                        per_cell=per_cell)
    ids = [dm.id for dm in ds.domains][::-1]
    rows = _rows(ds, ids, SPLIT_HOLDOUT, targets, label)
    z, t, _, ends = rows
    k = num_classes if targets == "label" else n_domains
    rng = np.random.default_rng(seed)
    probe = LinearProbe(rng.normal(size=(k, ds.dim)), rng.normal(size=k))
    blocks = zip(np.split(z, ends[:-1]), np.split(t, ends[:-1]))
    expected = float(np.mean([zero_one_error(probe, zb, tb) for zb, tb in blocks]))
    assert _error(probe, rows) == expected


class TestExactFamilyMode:
    """Exact search over a finite family, on the rows each metric reads."""

    def _balanced_dataset(self, seed):
        # equal class counts in every (domain, split) cell
        return random_dataset(seed, n_train=2, n_test=2, dim=2, num_classes=2, per_cell=8)

    def _d_primes(self, ds, family_of):
        train, union = ds.domain_ids_with_role(ROLE_TRAIN), _union_ids(ds, ROLE_TEST)
        d0 = 1.0 - _exact_error(ds, family_of, train, "domain") - 1.0 / len(train)
        d1 = 1.0 - _exact_error(ds, family_of, union, "domain") - 1.0 / len(union)
        d2 = np.mean([1.0 - _exact_error(ds, family_of, union, "domain", label=y)
                      - 1.0 / len(union) for y in range(ds.num_classes)])
        return d0, d1, d2

    @pytest.mark.parametrize("seed", range(8))
    def test_orderings_hold_exactly(self, seed):
        ds = self._balanced_dataset(seed)
        family_of = _random_family_provider(seed)
        train, target = ds.domain_ids_with_role(ROLE_TRAIN), _target_ids(ds, ROLE_TEST)
        e1 = _exact_error(ds, family_of, target, "label")
        e2 = _exact_error(ds, family_of, train + target, "label", scored=target)
        assert e1 <= e2 + 1e-12
        _, d1, d2 = self._d_primes(ds, family_of)
        assert d1 <= d2 + 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_e2_le_e3_for_train_optimal_head(self, seed):
        ds = self._balanced_dataset(seed)
        family_of = _random_family_provider(seed)
        train, target = ds.domain_ids_with_role(ROLE_TRAIN), _target_ids(ds, ROLE_TEST)
        z, ys, w, _ = _rows(ds, train, SPLIT_HOLDOUT, "label")
        family = family_of(ds.num_classes, z)
        _, idx = exact_best_error(family, z, ys, weights=w)
        e2 = _exact_error(ds, family_of, train + target, "label", scored=target)
        assert e2 <= e3_prime(ds, family[idx], ROLE_TEST) + 1e-12

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


# each case's diagnosis.json fields, less the solver's last bits, hashed
_PINNED_DIAGNOSIS_SHA256 = {
    "underfit": "e922e03d4d536b418dfe9bfb698737ffabae3256674f1608173c44b7346c4a23",
    "test-inseparable": "52c5d3a4e676aee6786cbf9d958615a20892b182111aa046dbcc11100b67bcf2",
    "misaligned": "33f8556a31e59677155dce06a819a2405c81e3855d6ae9d14b597f4b05c84d26",
    "head-noninvariant": "5627970a135e2a1f4f099255a9faf53fd1ebd065a3e4cc15b040d1bcfbea09f2",
    "success": "8f20325ea47dd9f6fd718b5ea7060c90b857eae3195237493ebf652c4d927d4c",
    "inv-train-only-a": "d6a4872adaf643c7c7aa1a3da884216153cb2f67e9e402863dde53e138754ecd",
    "inv-train-only-b": "c69471379cbc4ce3d4de90887055bc79aefcb54d09c99503218bfb8bf4e780d2",
    "inv-train-only-c": "00ac0e972f5feb409ccd55159fcfcd1b7072bf00995b441a8da0a5a52d233555",
    "inv-train-only-d": "6b90998fed7afd2675b20adfd97360706ec102cd1a560a2b25df6b5ce1429873",
    "inv-train-only-e": "786fe4cd80e676801115d052e0acbe0d1670c9ef1e50eeeea3dc3c5b93c97170",
    "inv-all-a": "33089e0aa20c2232c1896892fdd29dc8c528629b4c96b33fc05a2f1c333fae42",
    "inv-all-b": "1d263e6aacc02fc8c83ad71efec8b7fe904ad49e6ffc6f2f4b6a6832bb9e59a2",
    "inv-all-c": "d7a5a31d9bf7c902ced67d696674044fcc6d9eb945e7d220893034ae1803266e",
    "inv-all-d": "d1eb7845bdfcb2c127da9f0c3f4c0626af6052e51f328be4a4ef3add3d3a4331",
    "label-flipped": "422fd4439a5c57828d835b7b74a698327fd9f21a7171a93ba21bcfedb130ac2c",
    "pcg-64d": "8f71c87951ca2988461eca7d79e994b49219aba7d48c2ce8f4ae5f9b1af41a04",
}


def test_diagnoses_are_pinned():
    digests = {}
    for name, ds, head in _pinned_cases():
        diag = diagnose(ds, head, ROLE_TEST)
        view = without_solver_bits(diag.to_dict())
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

# each case's id-ordered twin: its diagnosis.json fields, less the solver's last bits, hashed
_PINNED_ORDER_SHA256 = {
    "reversed-0": "0b6a836ed3fc7c650ddd5b00067bc691e1181c174a2c153ae86b9fb434f1c513",
    "reversed-1": "46abee48acd1539c33296148b374961c6bda58896d74e378a7c31adef62d8a5f",
    "reversed-2": "bee73a228a755d6f1c999085b226dd296e6c70da0d1bec46aa7bff4c7a71f8ea",
    "reversed-3": "8d3fddadaf39e25f2bbad0665a3b87c682f478686fa48f4664e26bcb5cb7402d",
    "reversed-4": "a99f01b43fcc959589865e8419a266fb9225802433cf5772195a6866669fde12",
    "reversed-5": "4fd3c6b499545a43cc1e83b8eced4de32d2cd1c4f64e63fb240dadec0cd63253",
    "reversed-6": "8c512f0cb511059304961114b982a89534adae7951372bdc241bdd3e00b88720",
    "reversed-7": "f422a0aee381bd633f340f34a74fd6aca78404a29ad2b3e962fe4393618b5b6c",
    "interleaved-0": "d84a5e1a0dece74625eeab636e02856bd22f850d3306fa0d1c66ceccc9d2c0d0",
    "interleaved-1": "49da71040431f74f0c3a59f5d6aceba726a36a20ae420a9ab31a66857f4af0b7",
    "interleaved-2": "0b641e66c1db38a36dc11e6ac72a80e5654617be70772489716f8b3d94822835",
    "interleaved-3": "e04a01f76519fec96d08af7503fb0d54c858f4246f9e46949fed33f0e03f59c7",
    "interleaved-4": "abb052658d7301d1ed21ba56975fb49646a0a294f654ba3a607594d3804a220e",
    "interleaved-5": "23bf367288d3d2cc1ee1b25565ebec765c46b226c3786f64ca55c4f9f6774519",
    "interleaved-6": "51973bcd7d23771160f8ca2f200affe25c484d487da9f67fa689f605b3bd4eab",
    "interleaved-7": "bcc6477192a270cc34ce35dd1605c6958f149a5a6f96efe79e4198a04d080e22",
    "valid-0": "bb2866d4342618cfc56441f7558f43f37cd52b6d270c72ffb2968a78f9db5506",
    "valid-1": "268a147d569c002b54beb05f0b20b90839e7fe52302035cf3011d1afc2a5cb8b",
    "valid-2": "3d888e5b234ca3a9b847d8a1b4c795393d065e2ac31036212b09bc78d75d382b",
    "valid-3": "69d474a33058af85e52830a77a6fe8c30e82ff9ddc6f318c9b606dda2a986815",
    "valid-4": "99333589c864c0c90e5a6e8b0fa99c9b1fda46735fd0ac24d485b51af3efb132",
    "valid-5": "be95e381bcce8b96ec2295d72271daf0eff670c8af6a927781c50ae4822b0b37",
    "valid-6": "19a5d4b4d6de4568a0d473e2a560db27f8551ef7fe5e2fb2b857b376030ab27c",
    "valid-7": "8edfee56ba6b321097b34d9de1f377dd67c92fe658726c89de6c76888848f14e",
}


def test_domain_order_is_pinned():
    # every metric takes each role's domains by id, so a header out of id order
    # diagnoses to the last bit as its id-ordered twin does
    digests = {}
    for name, (order, roles, target) in _DOMAIN_ORDERS.items():
        twin_order, twin_roles = zip(*sorted(zip(order, roles)))
        for seed in range(8):
            head = LinearProbe(np.random.default_rng(seed).normal(size=(3, 3)), np.zeros(3))
            diag, twin = (diagnose(_reheaded(seed, o, r), head, target).to_dict()
                          for o, r in ((order, roles), (twin_order, twin_roles)))
            key = f"{name}-{seed}"
            assert json.dumps(diag, sort_keys=True) == json.dumps(twin, sort_keys=True), key
            digests[key] = hashlib.sha256(
                json.dumps(without_solver_bits(twin), sort_keys=True).encode()).hexdigest()
    assert digests == _PINNED_ORDER_SHA256
