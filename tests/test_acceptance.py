"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
import zlib
from dataclasses import replace

import numpy as np
import pytest

from dgdx import expt, metrics, scenarios
from dgdx.core import DomainMeta, LinearProbe, RepresentationDataset, ROLE_TEST, ROLE_TRAIN, ROLE_VALID
from dgdx.metrics import diagnose, pearson
from dgdx.probe import exact_best_error, fit_probe, zero_one_error
from dgdx.propositions import run_suite

from conftest import random_dataset
from support import binary_grid_family, oracle_instance, pack_params, unpack_params


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {name}: {status} {detail}")
    assert ok, f"criterion {name} failed: {detail}"


def test_criterion_1_decomposition_identities():
    """Both decomposition identities hold exactly on 500 randomized datasets."""
    t0 = time.time()
    rng = np.random.default_rng(1)
    checked = 0
    for i in range(500):
        ds = random_dataset(
            seed=10_000 + i,
            n_train=2 + i % 2,
            n_test=1 + i % 2,
            dim=2 + i % 3,
            num_classes=2 + i % 2,
            per_cell=6,
        )
        head = LinearProbe(rng.normal(size=(ds.num_classes, ds.dim)), rng.normal(size=ds.num_classes))
        diag = diagnose(ds, head)
        assert ((diag.e0 + diag.e1) + diag.e2) + diag.e3 == diag.e3_prime
        assert (diag.d0 + diag.d1) + diag.d2 == diag.d2_prime
        assert sum([diag.e0, diag.e1, diag.e2, diag.e3]) == diag.e3_prime
        assert sum([diag.d0, diag.d1, diag.d2]) == diag.d2_prime
        checked += 1
    elapsed = time.time() - t0
    _report("1 (decomposition identities)", checked == 500 and elapsed < 60,
            f"{checked}/500 exact, {elapsed:.1f}s")


def test_criterion_2_scenario_signatures():
    """Every kind passes its expectation for at least 19 of 20 seeds at defaults."""
    t0 = time.time()
    failures = {}
    for kind in scenarios.KINDS:
        bad = 0
        for seed in range(20):
            ds, exp = scenarios.generate(scenarios.ScenarioSpec(kind=kind, seed=seed))
            diag = diagnose(ds, exp.head, ROLE_TEST)
            if not scenarios.check_expectation(diag, exp).passed:
                bad += 1
        failures[kind] = bad
    elapsed = time.time() - t0
    ok = all(bad <= 1 for bad in failures.values()) and elapsed < 300
    worst = {k: v for k, v in failures.items() if v}
    _report("2 (scenario signatures)", ok,
            f"failures per kind: {worst or 'none'}, {elapsed:.1f}s")


def test_criterion_3_proposition_suites():
    """The theorem suites pass on every gated random instance."""
    t0 = time.time()
    results = {}
    for name, trials in (("prop1", 1000), ("prop2", 1000), ("orderings", 1000),
                         ("partition", 100)):
        rep = run_suite(name, trials, seed=0)
        results[name] = (rep.passed, rep.gated_out, rep.failed)
        assert rep.failed == 0, (name, rep.counterexample)
        assert rep.gated_out == 0, (name, "constructor produced an ungated instance")
        assert rep.passed == trials
    elapsed = time.time() - t0
    _report("3 (proposition suites)", elapsed < 600,
            f"{ {k: v[0] for k, v in results.items()} } passed, {elapsed:.1f}s")


def test_criterion_4_probe_vs_oracle():
    """Fitted probes come within 0.02 of the dense-grid 0-1 oracle in 2-d."""
    t0 = time.time()
    worst = 0.0
    for seed in range(100):
        z, t = oracle_instance(seed)
        probe, _ = fit_probe(z, t, 2)
        fitted = zero_one_error(probe, z, t)
        grid_err, _ = exact_best_error(binary_grid_family(z, n_angles=240, n_offsets=101), z, t)
        worst = max(worst, fitted - grid_err)
    elapsed = time.time() - t0
    _report("4 (probe vs oracle)", worst <= 0.02 and elapsed < 300,
            f"worst gap {worst:.4f}, {elapsed:.1f}s")


def test_criterion_5_gradient_checks():
    """All four objectives match central finite differences to 1e-4."""
    t0 = time.time()
    spec = expt.SyntheticColoredSpec(num_domains=4, num_classes=3, signal_dim=4,
                                     color_dim=6, samples_per_domain=60, noise_std=1.0,
                                     seed=3)
    raw = expt.make_dataset(spec)
    x, labels, pos, n_groups = expt._fit_batch(raw)
    worst = {}
    for alg, beta in (("erm", 0.0), ("coral", 1.3), ("cond-invariance", 0.7),
                      ("group-dro", 2.0)):
        cfg = expt.TrainConfig(algorithm=alg, beta=beta, hidden_width=8)
        rng = np.random.default_rng(zlib.crc32(alg.encode()))
        wrel = 0.0
        for point in range(20):
            base = expt.init_params(spec.input_dim, 8, 3, seed=point)
            for _ in range(80):
                p = {k: v + rng.normal(0, 0.3, v.shape) for k, v in base.items()}
                pre1, _, pre2, _, _ = expt.forward(p, x)
                if min(np.abs(pre1).min(), np.abs(pre2).min()) > 2e-5:
                    break
            vec = pack_params(p)

            def f(v):
                return expt.objective_and_grad(unpack_params(v, p), x, labels,
                                               pos, n_groups, 3, cfg)

            _, grads = f(vec)
            g = pack_params(grads)
            h = 1e-6
            fd = np.zeros_like(vec)
            for i in range(vec.size):
                vp, vm = vec.copy(), vec.copy()
                vp[i] += h
                vm[i] -= h
                fd[i] = (f(vp)[0] - f(vm)[0]) / (2 * h)
            rel = np.linalg.norm(fd - g) / max(np.linalg.norm(fd), np.linalg.norm(g))
            wrel = max(wrel, rel)
        worst[alg] = wrel
        assert wrel <= 1e-4, (alg, wrel)
    elapsed = time.time() - t0
    _report("5 (gradient checks)", elapsed < 120,
            f"worst rel err {max(worst.values()):.2e}, {elapsed:.1f}s")


def test_criterion_6_qualitative_pattern():
    """The spurious-feature training pattern at the shipped seed."""
    t0 = time.time()
    raw = expt.make_dataset(expt.CRITERION_FIXTURE_SPEC)

    erm_cfg = expt.CRITERION_FIXTURE_CONFIG
    _, _, erm_diag = expt.train_and_diagnose(raw, erm_cfg, ROLE_VALID)
    train_err = erm_diag.e0_prime
    erm_ok = (train_err <= 0.1 and erm_diag.e3_prime >= 0.5
              and erm_diag.d0_prime <= 0.1 and erm_diag.d1_prime >= 0.3)

    base = replace(expt.CRITERION_FIXTURE_CONFIG, algorithm=expt.ALG_COND_INVARIANCE)
    rows = expt.sweep_beta(raw, expt.BETA_GRID, base, ROLE_VALID)
    best = min(rows, key=lambda r: r.diagnosis.e3_prime)
    gap = best.diagnosis.e3_prime - best.diagnosis.e0_prime
    best_ok = gap <= 0.1 and best.diagnosis.d1_prime <= 0.1

    collapse_cfg = replace(base, beta=1e6)
    _, _, cdiag = expt.train_and_diagnose(raw, collapse_cfg, ROLE_VALID)
    collapse_ok = cdiag.e0_prime >= 0.3

    elapsed = time.time() - t0
    detail = (
        f"ERM: tr={train_err:.3f} e3p={erm_diag.e3_prime:.3f} "
        f"d0p={erm_diag.d0_prime:.3f} d1p={erm_diag.d1_prime:.3f} | "
        f"best beta={best.beta:g}: e3p={best.diagnosis.e3_prime:.3f} gap={gap:+.3f} "
        f"d1p={best.diagnosis.d1_prime:.3f} | collapse e0p={cdiag.e0_prime:.3f} | "
        f"{elapsed:.0f}s"
    )
    _report("6 (qualitative training pattern)",
            erm_ok and best_ok and collapse_ok and elapsed < 600, detail)


def test_criterion_7_frozen_feature_protocol():
    """With frozen features the separability metrics are constant and the head
    closes onto the misalignment lower bound."""
    t0 = time.time()
    raw = expt.make_dataset(expt.CRITERION_FIXTURE_SPEC)
    pretrained = expt.pretrained_invariant_params(expt.CRITERION_FIXTURE_SPEC)
    cfg = replace(expt.CRITERION_FIXTURE_CONFIG, freeze_features=True)
    model = expt.train(raw, cfg, start=pretrained)
    diags = []
    for i in range(len(model.checkpoints)):
        ds = expt.export_representations(model.checkpoints[i], raw)
        diags.append(diagnose(ds, model.head_probe(i), ROLE_VALID))
    const_ok = True
    for f in ("e1_prime", "e2_prime", "d0_prime", "d1_prime", "d2_prime"):
        vals = [getattr(d, f) for d in diags]
        if max(vals) - min(vals) > 1e-9:
            const_ok = False
    final = diags[-1]
    bound_gap = final.e3_prime - final.e2_prime
    bound_ok = abs(bound_gap) <= 0.02
    elapsed = time.time() - t0
    _report("7 (frozen-feature protocol)", const_ok and bound_ok and elapsed < 180,
            f"e3p-e2p={bound_gap:+.4f}, metrics constant={const_ok}, {elapsed:.0f}s")


def test_criterion_8_correlation_machinery():
    """Correlation matches a direct formula and the trajectory emits it."""
    t0 = time.time()
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 40))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        da, db = a - a.mean(), b - b.mean()
        direct = float((da @ db) / math.sqrt((da @ da) * (db @ db)))
        worst = max(worst, abs(pearson(a, b) - direct))
    assert worst <= 1e-12

    spec = expt.SyntheticColoredSpec(num_domains=4, num_classes=2, signal_dim=4,
                                     color_dim=8, samples_per_domain=120, seed=5)
    raw = expt.make_dataset(spec)
    cfg = expt.TrainConfig(epochs=4, steps_per_epoch=20, learning_rate=0.1,
                           hidden_width=8, seed=5)
    r1 = expt.trajectory(raw, cfg, ROLE_VALID)
    r2 = expt.trajectory(raw, cfg, ROLE_VALID)
    emitted = r1.e3_d1_correlation
    deterministic = (emitted == r2.e3_d1_correlation)
    produced = emitted is None or -1.0 <= emitted <= 1.0
    elapsed = time.time() - t0
    _report("8 (correlation machinery)",
            worst <= 1e-12 and deterministic and produced,
            f"max pearson dev {worst:.2e}, trajectory corr {emitted}, {elapsed:.0f}s")
