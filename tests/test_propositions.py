import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgdx.core import LinearProbe
from dgdx.probe import FiniteProbeFamily
from dgdx.propositions import (
    PartitionInstance,
    PropositionReport,
    _best_domain,
    _best_label,
    _random_family,
    check_orderings,
    check_partition_expectation,
    check_prop1,
    check_prop2,
    eval_F,
    eval_G,
    make_prop1_instance,
    make_prop2_instance,
    random_instance,
    run_suite,
    SUITES,
)

from support import constant_probe


def _tiny_instance(seed=13, flip_mass=False):
    """2-domain, 2-point, 2-class instance with hand-set probabilities."""
    rng = np.random.default_rng(seed)
    points = np.array([[0.0, 0.0], [1.0, 0.0]])
    family = FiniteProbeFamily(
        np.array([
            [[0.0, 0.0], [0.0, 0.0]],  # constant 0
            [[0.0, 0.0], [0.0, 0.0]],  # constant 1
            [[0.0, 0.0], [4.0, 0.0]],  # x > 0.5 -> 1
            [[4.0, 0.0], [0.0, 0.0]],  # x > 0.5 -> 0
        ]),
        np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -2.0], [-2.0, 0.0]]),
    )
    joint = rng.dirichlet(np.ones(4), size=3).reshape(3, 2, 2)
    return PartitionInstance(points, joint, (0,), family, None)


class TestEvalF:
    def test_perfect_probe_zero(self):
        inst = _tiny_instance()
        # probability mass entirely on (point0, class0) and (point1, class1)
        joint = np.zeros((2, 2, 2))
        joint[:, 0, 0] = 0.5
        joint[:, 1, 1] = 0.5
        inst = PartitionInstance(inst.points, joint, (0,), inst.label_family)
        assert eval_F(inst, [0, 1], inst.label_family[2]) == 0.0

    def test_all_wrong_probe_one(self):
        joint = np.zeros((2, 2, 2))
        joint[:, 0, 0] = 0.5
        joint[:, 1, 1] = 0.5
        inst = _tiny_instance()
        inst = PartitionInstance(inst.points, joint, (0,), inst.label_family)
        assert eval_F(inst, [0, 1], inst.label_family[3]) == 1.0

    def test_matches_direct_summation(self):
        inst = _tiny_instance(seed=13)
        probe = inst.label_family[2]
        preds = probe.predict(inst.points)
        expected = 0.0
        for i in (0, 2):
            for s in range(2):
                for y in range(2):
                    if preds[s] != y:
                        expected += inst.joint[i, s, y] / 2
        assert eval_F(inst, [0, 2], probe) == pytest.approx(expected, abs=1e-15)

    def test_empty_subset_errors(self):
        inst = _tiny_instance()
        with pytest.raises(ValueError, match="nonempty"):
            eval_F(inst, [], inst.label_family[0])

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_linear_in_domain_mixtures(self, seed):
        inst = random_instance(seed, n_domains=4, n_train=2)
        probe = inst.label_family[seed % len(inst.label_family)]
        fa = eval_F(inst, [0, 1], probe)
        fb = eval_F(inst, [2, 3], probe)
        fab = eval_F(inst, [0, 1, 2, 3], probe)
        assert fab == pytest.approx((2 * fa + 2 * fb) / 4, abs=1e-12)


class TestProp1:
    def test_constructed_instance_passes(self):
        inst = make_prop1_instance(0)
        rep = check_prop1(inst)
        assert rep.gate_passed and rep.conclusion_passed

    def test_gate_rejects_positive_joint_error(self):
        inst = _tiny_instance(seed=3)
        rep = check_prop1(inst)
        if not rep.gate_passed:
            assert "precondition not met" in rep.gate_reason

    def test_gate_rejects_marginal_shift(self):
        inst = make_prop1_instance(1)
        joint = inst.joint.copy()
        joint[0, :, :] = joint[0, ::-1, :]  # swap point marginals in one domain
        shifted = PartitionInstance(inst.points, joint, inst.train_idx, inst.label_family)
        rep = check_prop1(shifted)
        if not np.allclose(inst.joint[0].sum(axis=1), joint[0].sum(axis=1)):
            assert not rep.gate_passed
            assert "marginals differ" in rep.gate_reason

    @pytest.mark.parametrize("seed", range(40))
    def test_many_random_gated_instances_pass(self, seed):
        rep = check_prop1(make_prop1_instance(seed, n_points=6 + seed % 5))
        assert rep.gate_passed and rep.conclusion_passed


class TestProp2:
    def test_constructed_instance_passes(self):
        rep = check_prop2(make_prop2_instance(0))
        assert rep.gate_passed and rep.conclusion_passed

    def test_gate_reports_violating_class(self):
        inst = make_prop2_instance(2)
        joint = inst.joint.copy()
        # break conditional invariance for one class in the last (test) domain
        y = int(np.flatnonzero(joint[-1].sum(axis=0) > 0)[0])
        col = joint[-1, :, y]
        joint[-1, :, y] = col[::-1]
        if not np.allclose(col, col[::-1]):
            broken = PartitionInstance(inst.points, joint, inst.train_idx, inst.label_family)
            rep = check_prop2(broken)
            assert not rep.gate_passed
            assert "class" in rep.gate_reason

    @pytest.mark.parametrize("seed", range(40))
    def test_many_random_gated_instances_pass(self, seed):
        rep = check_prop2(make_prop2_instance(seed, n_points=6 + seed % 5))
        assert rep.gate_passed and rep.conclusion_passed


class TestOrderings:
    @pytest.mark.parametrize("seed", range(30))
    def test_separability_ordering_unconditional(self, seed):
        inst = random_instance(seed, uniform_priors=(seed % 2 == 0))
        rep = check_orderings(inst)
        entry = rep.entries[0]
        assert entry["name"] == "e1_le_e2"
        assert entry["status"] == "holds"

    @pytest.mark.parametrize("seed", range(30))
    def test_all_hold_with_uniform_priors(self, seed):
        inst = random_instance(seed, uniform_priors=True)
        rep = check_orderings(inst)
        assert rep.holds
        assert all(e["status"] == "holds" for e in rep.entries)

    def test_nonuniform_priors_gate_d_inequality(self):
        inst = random_instance(7, uniform_priors=False)
        rep = check_orderings(inst)
        d_entry = [e for e in rep.entries if e["name"] == "d1_le_d2"][0]
        assert d_entry["status"] == "assumption-unmet"
        assert d_entry["lhs"] is not None  # value still reported

    def test_suboptimal_head_gates_e2_e3(self):
        inst = random_instance(9, uniform_priors=True)
        family = inst.label_family
        errs = [eval_F(inst, inst.train_idx, family[i]) for i in range(len(family))]
        worst = int(np.argmax(errs))
        if errs[worst] > min(errs) + 1e-9:
            forced = PartitionInstance(inst.points, inst.joint, inst.train_idx,
                                       inst.label_family, inst.domain_family, head_index=worst)
            rep = check_orderings(forced)
            entry = [e for e in rep.entries if e["name"] == "e2_le_e3"][0]
            assert entry["status"] == "assumption-unmet"


class TestPartitionExpectation:
    def test_four_domains_enumerates_six_subsets(self):
        inst = random_instance(3, n_domains=4, n_train=2)
        rep = check_partition_expectation(inst.points, inst.joint, inst.label_family, 2)
        assert rep.n_subsets == 6
        assert rep.holds

    def test_identical_domains_equal_expectations(self):
        inst = random_instance(4, n_domains=2, n_train=1)
        joint = np.repeat(inst.joint[:1], 2, axis=0)
        rep = check_partition_expectation(inst.points, joint, inst.label_family, 1)
        assert rep.mean_train_error == pytest.approx(rep.mean_separability_error, abs=1e-12)

    def test_six_domain_instance_holds(self):
        inst = random_instance(21, n_domains=6, n_train=3)
        rep = check_partition_expectation(inst.points, inst.joint, inst.label_family, 3)
        assert rep.n_subsets == 20
        assert rep.holds

    def test_unbalanced_count_rejected(self):
        inst = random_instance(5, n_domains=4, n_train=2)
        with pytest.raises(ValueError, match="2 \\* n1"):
            check_partition_expectation(inst.points, inst.joint, inst.label_family, 3)

    def test_enumeration_guard(self):
        inst = random_instance(6, n_domains=4, n_train=2)
        with pytest.raises(ValueError, match="guard"):
            check_partition_expectation(inst.points, inst.joint, inst.label_family, 2,
                                        max_subsets=3)


class TestEvalG:
    def test_indistinguishable_domains_chance(self):
        inst = random_instance(11, n_domains=3, n_train=2)
        joint = np.repeat(inst.joint[:1], 3, axis=0)
        same = PartitionInstance(inst.points, joint, (0, 1), inst.label_family,
                                 inst.domain_family)
        probe = same.domain_family[0]  # constant domain-0 predictor
        assert eval_G(same, [0, 1, 2], probe) == pytest.approx(2 / 3, abs=1e-12)

    def test_conditional_undefined_on_zero_prior(self):
        inst = make_prop2_instance(3)
        joint = inst.joint.copy()
        present = np.flatnonzero(joint[0].sum(axis=0) > 0)
        y = int(present[0])
        mass = joint[0, :, y].sum()
        joint[0, :, y] = 0.0
        other = int(present[1])
        joint[0, :, other] = joint[0, :, other] * (1 + mass / joint[0, :, other].sum())
        joint[0] /= joint[0].sum()
        dom_family = FiniteProbeFamily(np.zeros((3, 3, 2)), np.eye(3))  # the constants
        broken = PartitionInstance(inst.points, joint, inst.train_idx,
                                   inst.label_family, dom_family)
        with pytest.raises(ValueError, match="zero prior"):
            eval_G(broken, [0, 1, 2], dom_family[0], conditional_class=y)


class TestFamilySearch:
    @pytest.mark.parametrize("seed", range(40))
    def test_searched_minimum_is_the_error_of_its_argmin(self, seed):
        inst = random_instance(seed, n_domains=3 + seed % 3, n_points=6 + seed % 4,
                               num_classes=2 + seed % 2, uniform_priors=bool(seed % 2))
        domains = tuple(range(inst.num_domains))
        for subset in (inst.train_idx, inst.test_idx, domains):
            err, idx = _best_label(inst, subset)
            assert err == eval_F(inst, subset, inst.label_family[idx])
        for y in (None,) + tuple(range(inst.num_classes)):
            err, idx = _best_domain(inst, domains, conditional_class=y)
            assert err == eval_G(inst, domains, inst.domain_family[idx], conditional_class=y)

    @pytest.mark.parametrize("num_outputs, dim", [(2, 2), (3, 2), (4, 3)])
    def test_random_family_draws_as_one_probe_at_a_time(self, num_outputs, dim):
        family = _random_family(np.random.default_rng(7), num_outputs, dim, 20)
        rng = np.random.default_rng(7)
        probes = [constant_probe(k, num_outputs, dim) for k in range(num_outputs)]
        for _ in range(20):
            w = rng.normal(0.0, 1.5, size=(num_outputs, dim))
            b = rng.normal(0.0, 0.5, size=num_outputs)
            probes.append(LinearProbe(w, b))
        assert np.array_equal(family.weights, np.stack([p.weights for p in probes]))
        assert np.array_equal(family.bias, np.stack([p.bias for p in probes]))

    def test_ties_pick_the_lowest_index(self):
        inst = random_instance(2, n_domains=3, num_classes=2)
        k = inst.num_domains
        # a family of constants listed twice: every error appears at two indices
        twice = FiniteProbeFamily(np.zeros((2 * k, k, 2)), np.concatenate([np.eye(k)] * 2))
        labels = FiniteProbeFamily(np.zeros((4, 2, 2)), np.concatenate([np.eye(2)] * 2))
        tied = PartitionInstance(inst.points, inst.joint, inst.train_idx, labels, twice)
        _, idx = _best_label(tied, (0, 1, 2))
        assert idx < 2
        _, idx = _best_domain(tied, (0, 1, 2))
        assert idx < k


class TestSuites:
    @pytest.mark.parametrize("name", ["prop1", "prop2", "orderings", "partition"])
    def test_small_suite_runs_clean(self, name):
        rep = run_suite(name, trials=25, seed=1)
        assert rep.failed == 0
        assert rep.passed + rep.gated_out == 25
        assert rep.gated_out == 0

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            run_suite("prop1", trials=0)

    def test_unknown_suite_is_rejected(self):
        with pytest.raises(ValueError, match="unknown suite 'prop3'"):
            run_suite("prop3", trials=1)

    def test_first_failure_is_the_counterexample(self, monkeypatch):
        # the suite table looks its checks up at call time, so a replaced
        # module global is what every trial runs
        from dgdx import propositions

        def failing(inst):
            t = len(inst.points)
            return PropositionReport("prop1", t != 7, "ok", False, ({"points": t},))

        monkeypatch.setattr(propositions, "check_prop1", failing)
        rep = run_suite("prop1", trials=5, seed=2)
        # n_points is 6 + t % 5, so trial 1 gates out and the rest fail
        assert (rep.gated_out, rep.passed, rep.failed) == (1, 0, 4)
        assert json.loads(json.dumps(rep.counterexample)) == {
            "trial": 0, "seed": (2 << 20), "detail": {
                "proposition": "prop1", "gate_passed": True, "gate_reason": "ok",
                "conclusion_passed": False, "violations": [{"points": 6}]}}

    def test_instance_json_round_trip(self):
        inst = random_instance(17)
        back = PartitionInstance.from_dict(inst.to_dict())
        assert np.array_equal(back.joint, inst.joint)
        assert back.train_idx == inst.train_idx
        assert len(back.label_family) == len(inst.label_family)


# Every report kind, hashed as ``json.dumps(asdict(report), sort_keys=True)``
# over 200 trial seeds.  The two propositions run on their own constructors,
# on each other's, on identical domains without a zero-error classifier and
# on a prop2 instance whose last domain moves one class, so every gate
# reason appears.  The orderings run with uniform and non-uniform priors and
# with a forced head, so both assumption-unmet entries appear.  Then the
# partition expectation, the instances' own JSON and each suite's report.
_PINNED_REPORTS_SHA256 = {
    "prop1": "ffb4f16f3ee62ecfe2428ed4b830c64e6a26a7a9994b5dd004ef8f17d6e4f205",
    "prop2": "1a4c471de95059439ef6d116a40289e1a40498e8847d25a706e391eb5ff8384e",
    "orderings": "0c19c2c09efc2d04c1249b4cf0464225e689aa34fb690d302565af3908dcd98b",
    "partition": "8ead583778a8ebc271cec2912bcbd56670f63c6b7fe2acf12039a89ecd9b8189",
    "instance": "323118e9db2a89a5b540481b3db82b243ba01b9d81ac9de6a4d5f5ddb6500ef8",
    "suites": "b1144d409d2cd9227586fc036ba51e877f41325292dad1a53a2afc080425f526",
}


def _report_bytes(report):
    return json.dumps(dataclasses.asdict(report), sort_keys=True).encode()


def _pinned_report_digests():
    h = {name: hashlib.sha256() for name in (
        "prop1", "prop2", "orderings", "partition", "instance", "suites")}
    for t in range(200):
        shape = {"n_points": 6 + t % 5, "num_classes": 2 + t % 2}
        p1, p2 = make_prop1_instance(t, **shape), make_prop2_instance(t, **shape)
        uniform = random_instance(t, n_domains=3 + t % 3, num_classes=2 + t % 2)
        skewed = random_instance(t, n_domains=3 + t % 3, num_classes=2 + t % 2,
                                 uniform_priors=False)
        n1 = 1 + t % 3
        balanced = random_instance(t, n_domains=2 * n1, n_train=n1, n_points=6 + t % 4)
        same = PartitionInstance(uniform.points, np.repeat(uniform.joint[:1], 3, axis=0),
                                 (0,), uniform.label_family)
        moved = p2.joint.copy()
        moved[-1, :, 0] = moved[-1, ::-1, 0]
        moved = PartitionInstance(p2.points, moved, p2.train_idx, p2.label_family)
        forced = dataclasses.replace(uniform, head_index=t % len(uniform.label_family))
        for inst in (p1, p2, same, moved):
            h["prop1"].update(_report_bytes(check_prop1(inst)))
            h["prop2"].update(_report_bytes(check_prop2(inst)))
        for inst in (uniform, skewed, forced):
            h["orderings"].update(_report_bytes(check_orderings(inst)))
        h["partition"].update(_report_bytes(check_partition_expectation(
            balanced.points, balanced.joint, balanced.label_family, n1)))
        for inst in (p1, p2, uniform, skewed):
            h["instance"].update(json.dumps(inst.to_dict(), sort_keys=True).encode())
    for name in SUITES:
        h["suites"].update(_report_bytes(run_suite(name, trials=20, seed=5)))
    return {name: d.hexdigest() for name, d in h.items()}


def test_reports_are_pinned():
    assert _pinned_report_digests() == _PINNED_REPORTS_SHA256
