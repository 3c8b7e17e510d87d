import hashlib
import json

import numpy as np
import pytest

from dgdx.core import FORMAT_BINARY, ROLE_TEST, ROLE_TRAIN, save_dump, validate_no_label_shift
from dgdx.metrics import diagnose
from dgdx.scenarios import (
    FIG1_KINDS,
    KINDS,
    ScenarioExpectation,
    ScenarioSpec,
    check_expectation,
    generate,
)


def run_kind(kind, seed=1, **kw):
    spec = ScenarioSpec(kind=kind, seed=seed, **kw)
    ds, exp = generate(spec)
    diag = diagnose(ds, exp.head, ROLE_TEST)
    return ds, exp, diag


class TestGenerate:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            ScenarioSpec(kind="bogus")

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="samples_per_cell"):
            ScenarioSpec(kind="success", samples_per_cell=4)

    @pytest.mark.parametrize("std", [float("nan"), float("inf"), 0.0])
    def test_cluster_std_must_be_positive_and_finite(self, std):
        with pytest.raises(ValueError, match="cluster_std"):
            ScenarioSpec(kind="success", cluster_std=std)

    def test_dim_requirement(self):
        with pytest.raises(ValueError, match="dim"):
            ScenarioSpec(kind="misaligned", dim=1)

    def test_deterministic(self):
        a, _ = generate(ScenarioSpec(kind="success", seed=5, samples_per_cell=40))
        b, _ = generate(ScenarioSpec(kind="success", seed=5, samples_per_cell=40))
        assert a.equals(b)

    def test_seed_changes_data(self):
        a, _ = generate(ScenarioSpec(kind="success", seed=5, samples_per_cell=40))
        b, _ = generate(ScenarioSpec(kind="success", seed=6, samples_per_cell=40))
        assert not np.array_equal(a.z, b.z)

    def test_label_shift_free_by_construction(self):
        for kind in KINDS:
            ds, _ = generate(ScenarioSpec(kind=kind, seed=0, samples_per_cell=40))
            assert validate_no_label_shift(ds, tol=0.0).passed

    def test_roles_and_counts(self):
        ds, _ = generate(ScenarioSpec(kind="misaligned", seed=0, samples_per_cell=40))
        assert len(ds.domain_ids_with_role(ROLE_TRAIN)) == 3
        assert len(ds.domain_ids_with_role(ROLE_TEST)) == 2

    def test_extra_dims_are_noise(self):
        ds, exp = generate(ScenarioSpec(kind="success", seed=0, dim=5, samples_per_cell=60))
        assert ds.dim == 5
        assert exp.head.dim == 5
        # padding dims carry no class signal
        z = ds.z.astype(float)
        assert abs(np.corrcoef(z[:, 4], ds.labels)[0, 1]) < 0.2


class TestSignatures:
    @pytest.mark.parametrize("kind", KINDS)
    def test_expectation_passes_at_seed_one(self, kind):
        _, exp, diag = run_kind(kind, seed=1)
        result = check_expectation(diag, exp)
        assert result.passed, (kind, result.violations, diag.to_dict())

    def test_misaligned_matches_its_subcaption(self):
        _, _, diag = run_kind("misaligned", seed=1)
        assert diag.e1_prime <= 0.05
        assert diag.e2_prime >= 0.3

    def test_head_noninvariant_values(self):
        _, _, diag = run_kind("head-noninvariant", seed=1)
        assert diag.e2_prime <= 0.05
        assert diag.e3_prime >= 0.4

    def test_label_flipped_values(self):
        _, _, diag = run_kind("label-flipped", seed=1)
        assert diag.d1_prime <= 0.05
        assert diag.d2_prime >= 0.3

    def test_fig1_kinds_have_distinguishable_training_domains(self):
        for kind in FIG1_KINDS:
            _, exp, diag = run_kind(kind, seed=2)
            assert diag.d0_prime >= 0.3, kind
            assert ("d0_prime", ">=", 0.3) in exp.predicates


class TestCheckExpectation:
    def test_cross_expectation_fails_listing_field(self):
        _, success_exp, _ = run_kind("success", seed=1)
        _, _, mis_diag = run_kind("misaligned", seed=1)
        result = check_expectation(mis_diag, success_exp)
        assert not result.passed
        assert any(v["field"] == "e2" for v in result.violations)

    def test_empty_predicates_vacuous(self):
        _, exp, diag = run_kind("success", seed=1)
        empty = ScenarioExpectation(exp.kind, (), exp.head)
        assert check_expectation(diag, empty).passed

    def test_unknown_field_errors(self):
        _, exp, diag = run_kind("success", seed=1)
        bad = ScenarioExpectation(exp.kind, (("nope", ">=", 0.0),), exp.head)
        with pytest.raises(KeyError, match="nope"):
            check_expectation(diag, bad)

    def test_expectation_json_round_trip(self):
        _, exp, _ = run_kind("label-flipped", seed=1)
        back = ScenarioExpectation.from_dict(exp.to_dict())
        assert back.kind == exp.kind
        assert back.predicates == exp.predicates
        assert np.array_equal(back.head.weights, exp.head.weights)


# Each kind's binary dump and expectation JSON, hashed over three
# configurations: the defaults, a changed seed/size/dim/std, and tiny cells.
_PIN_CONFIGS = (
    {},
    {"seed": 3, "samples_per_cell": 37, "dim": 4, "cluster_std": 0.2},
    {"samples_per_cell": 11},
)
_PINNED_SHA256 = {
    "underfit": "63df36351796c9f4cecf4dab96389cc5af93de78660a2a7bb9d678c8afc31ef9",
    "test-inseparable": "60231d85f90b7ba9f24a9d22800b98f2df93329347de58a811f9a171734aa15a",
    "misaligned": "f54834f546f8468700c5783d0f7e7f56d84db52ed844d39f88620ebbf740eb09",
    "head-noninvariant": "0599dc83e7e9ae57300984dc869df97b43cf76db914b888222e64c00a96c1f8f",
    "success": "8a4f64ce2e8d8901eec8a7650243af4a628d397e346cbdf41e6aeb34fa90029f",
    "inv-train-only-a": "9963d87a94a00fae7e7435e12f31c8d7f58742064d4cd7cad54103cd7038cbbb",
    "inv-train-only-b": "8e7e81ffa838c4aaf1ac51abb011f0d248af93831d053c6a9782916410653c55",
    "inv-train-only-c": "2df44f76f65fffe2e3714e4ed9c0979ebc2c013e5cbcbcf17d96fb78f9f4b373",
    "inv-train-only-d": "a12e60a85d2c14cbd2dea80de17bb8814d969e8cd3112e040b487ede4b397169",
    "inv-train-only-e": "7de03d08b944dc904e99fffd562901df4f1ea6bc3d3e10019a5731f1b0dc5abb",
    "inv-all-a": "8c64870ad5edcbd14ccf186884c5e267f18324a554d0ffebf5f5c7e26ce19f63",
    "inv-all-b": "eef9a69e3c02e0a0aba13188ee8d770cba4a681e011d3924747d7b6d8d2c04c5",
    "inv-all-c": "ca546404daedcb70d2ca0ba933df7db9d8634a410fa106c164ded6e53c386468",
    "inv-all-d": "976c31ee4b1b545e044b4ddf40afb6863cd84adda156a8aa9e18a8c4fe5d7560",
    "label-flipped": "e5f7cad1e76ac67a4ea62db2dbbf24e73882d63920a87aee6090124c9cef4c11",
}


def test_fixture_bytes_are_pinned(tmp_path):
    assert set(_PINNED_SHA256) == set(KINDS)
    path = tmp_path / "fixture.bin"
    for kind in KINDS:
        h = hashlib.sha256()
        for cfg in _PIN_CONFIGS:
            ds, exp = generate(ScenarioSpec(kind=kind, **cfg))
            save_dump(ds, path, FORMAT_BINARY)
            h.update(path.read_bytes())
            h.update(json.dumps(exp.to_dict(), sort_keys=True).encode())
        assert h.hexdigest() == _PINNED_SHA256[kind], kind
