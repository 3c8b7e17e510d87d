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

    def test_train_majority_constraint(self):
        with pytest.raises(ValueError, match="more training than test"):
            ScenarioSpec(kind="misaligned", n_train_domains=2, n_test_domains=2)


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


# Each kind's binary dump and expectation JSON, hashed over four
# configurations: the defaults, a changed seed/size/dim/std, more domains of
# both roles, and a single test domain with tiny cells.
_PIN_CONFIGS = (
    {},
    {"seed": 3, "samples_per_cell": 37, "dim": 4, "cluster_std": 0.2},
    {"n_train_domains": 5, "n_test_domains": 3},
    {"n_train_domains": 4, "n_test_domains": 1, "samples_per_cell": 11},
)
_PINNED_SHA256 = {
    "underfit": "d2a4da18a791348c1642f27ded6e9f229639a1fa2e6ed58c3e01ae8f07dc4895",
    "test-inseparable": "8391bd11d7b102686aee8b7a4258d496fce11e7cfaf177c37a32dc054fe41d56",
    "misaligned": "901c74d69bb5f8f0457c32cb4869d8a95ad96ca249906e57eb9c17a1c2d24ed1",
    "head-noninvariant": "0f03c64d6895fa7c8904e46e9c06e460ab8ca0d2b12492891ed8515a0d400f6c",
    "success": "40b5c5c18671e3e0900abfd52997b094a7768493ff3963c63a9444130aae3e17",
    "inv-train-only-a": "8ca16665f3189f40974343da0ea6b0a0e7413df1b2974ad9b2c2fdff488df590",
    "inv-train-only-b": "97b124284b07deaa9a620efae1869d34c13f5fe096a044b33ac600a55da4a8d8",
    "inv-train-only-c": "f90d8b2c18a4eafc54323a4bd11de756c0ceb660721bf2052f75a4c06e69b2db",
    "inv-train-only-d": "f1dc3a1fc7aa245c3d12ebc4563a05f04ec315814ccbe79c0829d04fafc47534",
    "inv-train-only-e": "e828c3c03a6d09913a0e5ac0afc041f6525cf44b8ef051917f41138d76d69595",
    "inv-all-a": "1678fa7df569dbacd5e7d1e8c6a33904e9930ea6e2e36bb0058127f7982f5e31",
    "inv-all-b": "e1a299ccfd0105bea1ce3e603e2a010bb76096552b62644fc928f1eb85332a71",
    "inv-all-c": "95aa0629ade64736c6569405168499e09733a5feb4af6006883c3055716fa25a",
    "inv-all-d": "2745ff478214b433324ec2e1e4187b5e9af022b0f9fb20d1c5c99a1921b0d605",
    "label-flipped": "c8b1cceb96afd7934dd2d12670a404e0d93b81fb1ffb55f709a6d2190e790396",
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
