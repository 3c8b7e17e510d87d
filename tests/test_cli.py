import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import dgdx
from dgdx import cli, expt
from dgdx.cli import main
from dgdx.core import (
    FORMAT_BINARY,
    FORMAT_CSV,
    ROLE_TEST,
    ROLE_TRAIN,
    ROLE_VALID,
    DomainMeta,
    LinearProbe,
    RepresentationDataset,
    _record_dtype,
    load_dump,
    save_dump,
    validate_no_label_shift,
)
from dgdx.metrics import csv_row
from dgdx.probe import FiniteProbeFamily
from dgdx.scenarios import ScenarioSpec, generate

from conftest import random_dataset
from support import damage_binary, damage_csv, rewrite_header, traced_peak


@pytest.fixture
def runner():
    return CliRunner()


def _scenario_files(tmp_path, kind="success", seed=1, spc=60):
    ds, exp = generate(ScenarioSpec(kind=kind, seed=seed, samples_per_cell=spc))
    dump = tmp_path / "scn.bin"
    head = tmp_path / "head.json"
    save_dump(ds, dump, FORMAT_BINARY)
    exp.head.save(head)
    return dump, head


class TestDiagnoseCommand:
    def test_success_fixture_exit_zero(self, runner, tmp_path):
        dump, head = _scenario_files(tmp_path)
        out = tmp_path / "out"
        res = runner.invoke(main, ["diagnose", "--dump", str(dump), "--head", str(head),
                                   "--target", "test", "--out", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "diagnosis.json").read_text())
        for comp in ("e0", "e1", "e2", "e3"):
            assert report[comp] <= 0.05
        assert (out / "diagnosis.csv").read_bytes().count(b"\r\n") == 2

    def test_unconverged_fit_exits_three_after_writing_the_report(self, runner, tmp_path,
                                                                  monkeypatch):
        monkeypatch.setattr(dgdx.probe, "_MAX_NEWTON_STEPS", 1)
        dump, head = _scenario_files(tmp_path)
        out = tmp_path / "out"
        res = runner.invoke(main, ["diagnose", "--dump", str(dump), "--head", str(head),
                                   "--target", "test", "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert "did not converge (partial report written)" in res.output
        report = json.loads((out / "diagnosis.json").read_text())
        assert not report["probe_meta"]["e1"]["converged"]
        assert (out / "diagnosis.csv").read_bytes().count(b"\r\n") == 2

    def test_missing_head_exit_two(self, runner, tmp_path):
        dump, _ = _scenario_files(tmp_path)
        res = runner.invoke(main, ["diagnose", "--dump", str(dump),
                                   "--head", str(tmp_path / "nope.json")])
        assert res.exit_code == 2
        assert "nope.json" in res.output + str(res.stderr_bytes or b"")

    def test_label_shifted_dump_exit_two_with_marginals(self, runner, tmp_path):
        ds = random_dataset(0, per_cell=8)
        labels = ds.labels.copy()
        dom0 = ds.domain_ids == 0
        # skew domain 0 labels hard while leaving one fit/holdout sample per class
        idx = np.flatnonzero(dom0 & (ds.labels == 1) & (ds.splits == 0))[1:]
        labels[idx] = 0
        from dgdx.core import RepresentationDataset

        skewed = RepresentationDataset(ds.dim, ds.num_classes, ds.domains, ds.domain_ids,
                                       ds.splits, labels, ds.z)
        dump = tmp_path / "skew.bin"
        save_dump(skewed, dump, FORMAT_BINARY)
        head = tmp_path / "head.json"
        LinearProbe(np.zeros((2, 3)), np.zeros(2)).save(head)
        res = runner.invoke(main, ["diagnose", "--dump", str(dump), "--head", str(head),
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        err = res.stderr if hasattr(res, "stderr") else ""
        payload = json.loads((err or res.output).splitlines()[0])
        assert "per_domain" in payload

    @pytest.mark.parametrize("fmt", [FORMAT_BINARY, FORMAT_CSV])
    def test_non_finite_feature_exit_two_naming_the_row(self, runner, tmp_path, fmt):
        ds = random_dataset(0, per_cell=8)
        dump = tmp_path / "reps"
        save_dump(ds, dump, fmt)
        if fmt == FORMAT_CSV:
            lines = dump.read_text().splitlines()
            lines[3] = lines[3].rsplit(",", 1)[0] + ",inf"  # row 3 after the header
            dump.write_text("\n".join(lines) + "\n")
        else:
            blob = bytearray(dump.read_bytes())
            itemsize = _record_dtype(ds.dim).itemsize
            end = len(blob) - (ds.num_samples - 3) * itemsize
            blob[end - 4 : end] = np.float32(np.inf).tobytes()  # row 3's last feature
            dump.write_bytes(bytes(blob))
        head = tmp_path / "head.json"
        LinearProbe(np.zeros((2, 3)), np.zeros(2)).save(head)
        res = runner.invoke(main, ["diagnose", "--dump", str(dump), "--head", str(head),
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "non-finite feature value inf at row 3" in res.output + (res.stderr or "")

    def test_head_scores_are_checked_past_the_first_block(self, runner, tmp_path, monkeypatch):
        ds = random_dataset(0, per_cell=8)
        z = ds.z.copy()
        z[:, 0] = 0.5
        z[-2, 0] = 2.0  # 2e308 overflows; every other row scores 5e307
        dump, head = tmp_path / "d.bin", tmp_path / "head.json"
        save_dump(RepresentationDataset(ds.dim, ds.num_classes, ds.domains, ds.domain_ids,
                                        ds.splits, ds.labels, z), dump)
        LinearProbe([[1e308, 0.0, 0.0], [0.0, 0.0, 0.0]], np.zeros(2)).save(head)
        monkeypatch.setattr(cli, "_HEAD_CHECK_VALUES", 5 * ds.dim)  # blocks of 5 rows
        res = runner.invoke(main, ["diagnose", "--dump", str(dump), "--head", str(head),
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "the head's scores on the dump are not finite" in res.output

    def test_peak_memory_is_the_dataset_and_one_fit_copy(self, runner, tmp_path):
        # a ~5 MiB dump: 2 training domains and a test domain, 2 classes, 128 dims
        rng = np.random.default_rng(0)
        cells = [(d, c) for d in range(3) for c in range(2)]
        per_cell, dim = 1667, 128
        ids = np.repeat([d for d, _ in cells], per_cell)
        labels = np.repeat([c for _, c in cells], per_cell)
        splits = np.tile(np.arange(per_cell) % 5 == 4, len(cells)).astype(np.uint8)
        z = rng.normal(size=(ids.size, dim)) + 0.3 * labels[:, None] + 0.1 * ids[:, None]
        domains = (DomainMeta(0, "a", ROLE_TRAIN), DomainMeta(1, "b", ROLE_TRAIN),
                   DomainMeta(2, "t", ROLE_TEST))
        ds = RepresentationDataset(dim, 2, domains, ids, splits, labels, z.astype(np.float32))
        # a first, small run imports what the diagnosis imports on first use
        small, small_head = _scenario_files(tmp_path)
        runner.invoke(main, ["diagnose", "--dump", str(small), "--head", str(small_head),
                             "--out", str(tmp_path)])
        dump, head = tmp_path / "d.bin", tmp_path / "wide_head.json"
        save_dump(ds, dump)
        LinearProbe(np.outer([0.0, 1.0], np.ones(dim)), np.zeros(2)).save(head)
        args = ["diagnose", "--dump", str(dump), "--head", str(head), "--out", str(tmp_path)]
        res, peak = traced_peak(runner.invoke, main, args)
        assert res.exit_code == 0, res.output
        own = sum(a.nbytes for a in (ds.domain_ids, ds.splits, ds.labels, ds.z))
        # the largest fit (e2', d1') takes every domain's fit rows, as float64
        fit_rows = int((splits == 0).sum()) * dim * 8
        # beyond one copy of them: their targets and weights, one domain's float32 gather, and
        # the solver's bounded temporaries (up to about 2.5 MiB for the 0-1 line search)
        assert peak <= own + 1.25 * fit_rows + (2 << 20)

    @pytest.mark.parametrize("num_classes", [2, 1])
    def test_fit_rows_of_one_class_exit_two_naming_the_domains(self, runner, tmp_path,
                                                               num_classes):
        # every label is 0, so the label-shift gate passes but no label probe can be fitted
        ds = random_dataset(0, per_cell=8)
        dump = tmp_path / "one_class.csv"
        save_dump(RepresentationDataset(ds.dim, num_classes, ds.domains, ds.domain_ids,
                                        ds.splits, np.zeros_like(ds.labels), ds.z),
                  dump, FORMAT_CSV)
        head = tmp_path / "head.json"
        LinearProbe(np.zeros((num_classes, 3)), np.zeros(num_classes)).save(head)
        res = runner.invoke(main, ["diagnose", "--dump", str(dump), "--head", str(head),
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert "split=0 (fit) samples of domains [2] hold fewer than 2 distinct labels" \
            in res.output

    @pytest.mark.parametrize("roles, target, message", [
        ((ROLE_TRAIN, ROLE_TRAIN, ROLE_VALID), "test", "no domains with role 'test'"),
        ((ROLE_TRAIN, ROLE_TRAIN, ROLE_VALID, ROLE_VALID), "valid",
         "needs fewer validation domains than training domains"),
    ])
    def test_unusable_domain_roles_exit_two(self, runner, tmp_path, roles, target, message):
        ds = random_dataset(0, n_test=len(roles) - 2, per_cell=8)
        domains = tuple(DomainMeta(dm.id, dm.name, role) for dm, role in zip(ds.domains, roles))
        dump = tmp_path / "reps.bin"
        save_dump(RepresentationDataset(ds.dim, ds.num_classes, domains, ds.domain_ids,
                                        ds.splits, ds.labels, ds.z), dump, FORMAT_BINARY)
        head = tmp_path / "head.json"
        LinearProbe(np.zeros((2, 3)), np.zeros(2)).save(head)
        res = runner.invoke(main, ["diagnose", "--dump", str(dump), "--head", str(head),
                                   "--target", target, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        text = res.output + (res.stderr or "")
        assert "Traceback" not in text
        assert message in text

    @pytest.mark.parametrize("fmt", [FORMAT_BINARY, FORMAT_CSV])
    @pytest.mark.parametrize("order", [(6, 5, 4, 3, 2, 1, 0), (5, 2, 6, 0, 3, 4, 1)],
                             ids=["reversed", "interleaved"])
    def test_header_order_leaves_the_outputs_unchanged(self, runner, tmp_path, fmt, order):
        # ids 0-3 train and 4-6 test; the header lists them in ``order``, the rows are unchanged
        ds = random_dataset(0, n_train=4, n_test=3, num_classes=3)
        dump = tmp_path / f"reps.{fmt}"
        save_dump(ds, dump, fmt)
        reheaded = tmp_path / f"reheaded.{fmt}"
        reheaded.write_bytes(rewrite_header(dump.read_bytes(), lambda header: header.update(
            domains=[header["domains"][d] for d in order])))
        head = tmp_path / "head.json"
        LinearProbe(np.random.default_rng(0).normal(size=(3, 3)), np.zeros(3)).save(head)
        for name, path in (("id", dump), ("header", reheaded)):
            res = runner.invoke(main, ["diagnose", "--dump", str(path), "--head", str(head),
                                       "--out", str(tmp_path / name)])
            assert res.exit_code == 0, res.output
        for fname in ("diagnosis.json", "diagnosis.csv"):
            assert (tmp_path / "header" / fname).read_bytes() == \
                (tmp_path / "id" / fname).read_bytes()


def _field_default(cls, name):
    return next(f.default for f in dataclasses.fields(cls) if f.name == name)


_TRAINING_DEFAULTS = [(f, expt.TrainConfig) for f in (
    "epochs", "steps_per_epoch", "learning_rate", "hidden_width")] + [
    ("samples_per_domain", expt.SyntheticColoredSpec)]


@pytest.mark.parametrize("command, option, library", [
    ("diagnose", "tol", inspect.signature(validate_no_label_shift).parameters["tol"].default),
    *[("scenario", f, _field_default(ScenarioSpec, f))
      for f in ("samples_per_cell", "cluster_std", "dim")],
    *[(c, f, _field_default(cls, f)) for c in ("train", "sweep", "trajectory")
      for f, cls in _TRAINING_DEFAULTS],
    *[(c, f, _field_default(expt.TrainConfig, f)) for c in ("train", "trajectory")
      for f in ("algorithm", "beta")],
])
def test_option_defaults_are_the_library_defaults(command, option, library):
    (param,) = [p for p in main.commands[command].params if p.name == option]
    assert param.default == library and type(param.default) is type(library)


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_bad_tol_exits_two_naming_the_option(runner, tmp_path, tol):
    dump = tmp_path / "reps.bin"
    save_dump(random_dataset(0, per_cell=8), dump, FORMAT_BINARY)
    head = tmp_path / "head.json"
    LinearProbe(np.zeros((2, 3)), np.zeros(2)).save(head)
    res = runner.invoke(main, ["diagnose", "--dump", str(dump), "--head", str(head),
                               "--tol", tol, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    text = res.output + (res.stderr or "")
    assert "Traceback" not in text
    assert "--tol" in text


@pytest.mark.parametrize("fmt", [FORMAT_BINARY, FORMAT_CSV])
@pytest.mark.parametrize("field, value", [
    ("dim", -1), ("dim", 2**40), ("dim", 1.5), ("dim", True), ("num_classes", 2**40),
    ("version", 1.5), ("version", True), ("version", "1"), ("version", float("inf")),
    ("id", 0.5), ("id", "0"), ("id", False), ("id", float("-inf")),
])
def test_bad_header_size_exits_two_naming_the_field(runner, tmp_path, fmt, field, value):
    """Every header integer, ``"id"`` being the first domain's."""
    dump = tmp_path / "reps"
    save_dump(random_dataset(0, per_cell=8), dump, fmt)

    def edit(header):
        (header["domains"][0] if field == "id" else header)[field] = value

    dump.write_bytes(rewrite_header(dump.read_bytes(), edit))
    head = tmp_path / "head.json"
    LinearProbe(np.zeros((2, 3)), np.zeros(2)).save(head)
    res = runner.invoke(main, ["diagnose", "--dump", str(dump), "--head", str(head),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    text = res.output + (res.stderr or "")
    assert "Traceback" not in text
    assert f"'{field}'" in text


@pytest.mark.parametrize("fmt", [FORMAT_BINARY, FORMAT_CSV])
def test_repeated_domain_id_exits_two(runner, tmp_path, fmt):
    dump = tmp_path / "reps"
    save_dump(random_dataset(0, per_cell=8), dump, fmt)

    def edit(header):
        header["domains"][1]["id"] = header["domains"][0]["id"]

    dump.write_bytes(rewrite_header(dump.read_bytes(), edit))
    head = tmp_path / "head.json"
    LinearProbe(np.zeros((2, 3)), np.zeros(2)).save(head)
    res = runner.invoke(main, ["diagnose", "--dump", str(dump), "--head", str(head),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert "duplicate domain id" in res.output


@pytest.mark.parametrize("command, option", [
    ("diagnose", "--dump"), ("pca", "--dump"), ("verify", "--instance"),
])
def test_missing_input_file_exits_two_naming_it(runner, tmp_path, command, option):
    head = tmp_path / "head.json"
    LinearProbe(np.zeros((2, 3)), np.zeros(2)).save(head)
    extra = ["--head", str(head)] if command == "diagnose" else []
    res = runner.invoke(main, [command, option, str(tmp_path / "nope.bin"), *extra,
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert "nope.bin" in res.output
    assert not (tmp_path / "o").exists()


def _undecodable_dump(tmp_path, kind):
    """A dump file that is not UTF-8 where it must be, and the file offset of
    its first byte that is not."""
    path = tmp_path / kind
    if kind == "random":
        blob = np.random.default_rng(3).bytes(200)
        assert blob[:4] != b"DGDX"
        try:
            blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            offset = exc.start
    elif kind == "bom":
        blob, offset = b"\xff\xfe" + "1,F,0,0.5\n".encode("utf-16-le"), 0
    else:
        save_dump(random_dataset(0, per_cell=8), path, FORMAT_BINARY)
        blob = bytearray(path.read_bytes())
        offset = 9 + blob[9:].index(b'"name"') + 1  # inside the JSON header
        blob[offset] = 0xFF
    path.write_bytes(bytes(blob))
    return path, offset


class TestUndecodableDump:
    @pytest.mark.parametrize("kind", ["random", "bom", "binary-header"])
    def test_exit_two_naming_the_byte(self, runner, tmp_path, kind):
        dump, offset = _undecodable_dump(tmp_path, kind)
        head = tmp_path / "head.json"
        LinearProbe(np.zeros((2, 3)), np.zeros(2)).save(head)
        res = runner.invoke(main, ["diagnose", "--dump", str(dump), "--head", str(head),
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        text = res.output + (res.stderr or "")
        assert "Traceback" not in text
        assert f"not UTF-8 text at byte {offset}" in text


@pytest.mark.parametrize("fmt", [FORMAT_BINARY, FORMAT_CSV])
@given(data=st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_damaged_dump_exits_cleanly(runner, tmp_path, fmt, data):
    # the damage of test_core's TestBinaryDumpDamage and TestCsvDumpDamage,
    # diagnosed against a head that fits the undamaged dump; a flipped
    # exponent byte can leave probe fits unconverged (exit 3) after a second
    # or two, which caps the example count
    clean, head = tmp_path / f"clean.{fmt}", tmp_path / "head.json"
    if not clean.exists():
        save_dump(random_dataset(0), clean, fmt)
        LinearProbe(np.zeros((2, 3)), np.zeros(2)).save(head)
    damage = damage_binary if fmt == FORMAT_BINARY else damage_csv
    dump = tmp_path / f"damaged.{fmt}"
    dump.write_bytes(damage(clean.read_bytes(), data))
    res = runner.invoke(main, ["diagnose", "--dump", str(dump), "--head", str(head),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code in (0, 2, 3), res.output
    assert isinstance(res.exception, (SystemExit, type(None)))
    assert "Traceback" not in res.output


class TestScenarioCommand:
    def test_verify_misaligned_passes(self, runner, tmp_path):
        res = runner.invoke(main, ["scenario", "--kind", "misaligned", "--seed", "1",
                                   "--samples-per-cell", "120", "--verify",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "scenario.bin").exists()
        sidecar = json.loads((tmp_path / "expectation.json").read_text())
        assert sidecar["kind"] == "misaligned"
        verification = json.loads((tmp_path / "verification.json").read_text())
        assert verification["result"]["passed"]

    def test_verify_success_passes(self, runner, tmp_path):
        res = runner.invoke(main, ["scenario", "--kind", "success", "--seed", "1",
                                   "--samples-per-cell", "120", "--verify",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output

    def test_bogus_kind_lists_valid(self, runner, tmp_path):
        res = runner.invoke(main, ["scenario", "--kind", "bogus", "--seed", "1",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2
        combined = res.output + (res.stderr if hasattr(res, "stderr") else "")
        assert "misaligned" in combined

    def test_dump_round_trips(self, runner, tmp_path):
        res = runner.invoke(main, ["scenario", "--kind", "label-flipped", "--seed", "3",
                                   "--samples-per-cell", "40", "--format", "csv",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0
        ds = load_dump(tmp_path / "scenario.csv", FORMAT_CSV)
        assert ds.num_classes == 2


class TestVerifyCommand:
    def test_all_suites_small(self, runner, tmp_path):
        res = runner.invoke(main, ["verify", "--suite", "all", "--trials", "10",
                                   "--seed", "0", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["failures"] == 0
        assert set(report["suites"]) == {"prop1", "prop2", "orderings", "partition"}

    def test_zero_trials_exit_two(self, runner, tmp_path):
        res = runner.invoke(main, ["verify", "--suite", "prop1", "--trials", "0",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2

    def test_trials_past_the_seed_stride_exit_two_naming_the_limit(self, runner, tmp_path):
        res = runner.invoke(main, ["verify", "--trials", str((1 << 20) + 1),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "1048576" in res.output
        assert not (tmp_path / "verify.json").exists()

    def test_instance_file_with_nonuniform_priors(self, runner, tmp_path):
        from dgdx.propositions import random_instance

        inst = random_instance(7, uniform_priors=False)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst.to_dict()))
        res = runner.invoke(main, ["verify", "--suite", "orderings",
                                   "--instance", str(path), "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        report = json.loads((tmp_path / "verify.json").read_text())
        d_rows = [e for e in report["entries"] if e["name"] == "d1_le_d2"]
        assert d_rows and d_rows[0]["status"] == "assumption-unmet"

    def test_trials_required_without_an_instance(self, runner, tmp_path):
        res = runner.invoke(main, ["verify", "--suite", "prop1", "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "--trials is required without --instance" in res.output
        assert not (tmp_path / "verify.json").exists()

    @pytest.mark.parametrize("args, code, message", [
        (["--suite", "orderings"], 0, None),
        (["--suite", "all"], 0, None),
        ([], 0, None),
        (["--trials", "5"], 2, "--trials conflicts with --instance"),
        (["--suite", "orderings", "--trials", "1"], 2, "--trials conflicts with --instance"),
        (["--suite", "prop1"], 2, "--suite prop1 conflicts with --instance"),
        (["--suite", "partition"], 2, "--suite partition conflicts with --instance"),
    ])
    def test_instance_options(self, runner, tmp_path, args, code, message):
        from dgdx.propositions import random_instance

        path = tmp_path / "inst.json"
        path.write_text(json.dumps(random_instance(7).to_dict()))
        out = tmp_path / "out"
        res = runner.invoke(main, ["verify", *args, "--instance", str(path), "--out", str(out)])
        assert res.exit_code == code, res.output
        if message is None:
            assert "entries" in json.loads((out / "verify.json").read_text())
        else:
            assert message in res.output
            assert not out.exists()


def _instance_with(**fields):
    from dgdx.propositions import random_instance

    return dict(random_instance(7).to_dict(), **fields)


def _zero_family(num_outputs, dim):
    return FiniteProbeFamily(np.zeros((1, num_outputs, dim)), np.zeros((1, num_outputs))).to_dict()


def _joint_with(domain, point, label, value):
    joint = _instance_with()["joint"]
    joint[domain][point][label] = value
    return joint


def _family_with_bias(name, value):
    family = _instance_with()[name]
    family["probes"][0]["bias"][0] = value
    return family


def _family_with_weights(name, row):
    family = _instance_with()[name]
    family["probes"][0]["weights"][0] = row
    return family


_BEYOND_FLOAT = 10**400  # a JSON integer literal that no float can hold
_NESTED = "[" * 100_000  # deeper than the JSON decoder's recursion limit


@pytest.mark.parametrize("obj, field", [
    ([1, 2], "JSON object"),
    ({"joint": [], "train_idx": [0], "label_family": {}}, "points"),
    (_instance_with(points="abc"), "points"),
    (_instance_with(points=[[0.0, 0.0, 0.0]] * 8), "points"),
    (_instance_with(points=[[float("nan"), 0.0]] * 8), "points"),
    (_instance_with(joint=[[1, [2]]]), "joint"),
    (_instance_with(label_family="x"), "label_family"),
    (_instance_with(label_family={"probes": [1]}), "label_family"),
    (_instance_with(domain_family=[1]), "domain_family"),
    (_instance_with(domain_family=_zero_family(4, 3)), "domain_family"),
    (_instance_with(train_idx=[5]), "train_idx"),
    (_instance_with(train_idx="0"), "train_idx"),
    (_instance_with(train_idx=[-1]), "train_idx"),
    (_instance_with(train_idx=[0, 0]), "train_idx"),
    (_instance_with(train_idx=[True]), "train_idx"),
    (_instance_with(train_idx=None), "train_idx"),
    (_instance_with(head_index=999), "head_index"),
    (_instance_with(head_index=-1), "head_index"),
    (_instance_with(head_index=1.5), "head_index"),
    (_instance_with(points=[[_BEYOND_FLOAT, 0.0]] * 8), "points"),
    (_instance_with(joint=[[[_BEYOND_FLOAT]]]), "joint"),
    (_instance_with(label_family=_family_with_bias("label_family", _BEYOND_FLOAT)),
     "label_family"),
    (_instance_with(domain_family=_family_with_bias("domain_family", -_BEYOND_FLOAT)),
     "domain_family"),
    (_instance_with(train_idx=[_BEYOND_FLOAT]), "train_idx"),
    (_instance_with(head_index=_BEYOND_FLOAT), "head_index"),
    # finite, but the scores on the points overflow
    (_instance_with(domain_family=_family_with_weights("domain_family", [8.36e307] * 2)),
     "domain_family"),
    (_instance_with(joint=_joint_with(2, 3, 1, -0.01)), "joint"),
    (_instance_with(joint=_joint_with(1, 0, 0, 0.5)), "joint"),
    (_instance_with(label_family=_zero_family(3, 2)), "label_family"),
    pytest.param(_NESTED, "inst.json", id="nested-arrays"),
])
def test_malformed_instance_exits_two_naming_the_field(runner, tmp_path, obj, field):
    path = tmp_path / "inst.json"
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    res = runner.invoke(main, ["verify", "--instance", str(path), "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    assert field in res.output


# integers of any size, with those beyond the float range drawn as often
_JSON_INTEGERS = st.integers() | st.integers(min_value=2**1024) | st.integers(max_value=-2**1024)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _JSON_INTEGERS | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12,
)


_NUMERIC_ARRAYS = arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=3),
                         elements=st.floats(-4.0, 4.0)).map(np.ndarray.tolist)


def _leaf_paths(obj, path=()):
    if isinstance(obj, (list, dict)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _leaf_paths(value, path + (key,))
    else:
        yield path


@given(data=st.data())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_instance_with_any_part_replaced_exits_cleanly(runner, tmp_path, data):
    # one field of a valid instance, or one value inside it, becomes any
    # JSON value (integers unbounded)
    obj = _instance_with()
    field = data.draw(st.sampled_from(sorted(obj)))
    *parents, last = (field,) + data.draw(st.sampled_from([()] + list(_leaf_paths(obj[field]))))
    target = obj
    for key in parents:
        target = target[key]
    target[last] = data.draw(_JSON_VALUES)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    res = runner.invoke(main, ["verify", "--instance", str(path), "--out", str(tmp_path)])
    assert res.exit_code in (0, 2), res.output
    assert isinstance(res.exception, (SystemExit, type(None)))
    assert "Traceback" not in res.output


def _head_with(**fields):
    return dict(LinearProbe(np.zeros((2, 2)), np.zeros(2)).to_dict(), **fields)


@pytest.mark.parametrize("text, message", [
    pytest.param(json.dumps(_head_with(bias=[_BEYOND_FLOAT, 0.0])), "bad_head.json",
                 id="bias-beyond-float"),
    pytest.param(json.dumps(_head_with(weights=[[0.0, -_BEYOND_FLOAT], [0.0, 0.0]])),
                 "bad_head.json", id="weight-beyond-float"),
    pytest.param(json.dumps(_head_with(weights=[[8e307, 8e307], [-8e307, -8e307]])),
                 "bad_head.json", id="scores-beyond-float"),
    pytest.param(json.dumps(_head_with(num_outputs=None)), "bad_head.json",
                 id="num-outputs-null"),
    pytest.param(json.dumps(_head_with(num_outputs=float("inf"))), "bad_head.json",
                 id="num-outputs-inf"),
    pytest.param(json.dumps(_head_with(num_outputs=3)), "bad_head.json",
                 id="num-outputs-not-the-weight-rows"),
    pytest.param(json.dumps([1, 2]), "bad_head.json", id="not-an-object"),
    pytest.param(_NESTED, "bad_head.json", id="nested-arrays"),
    # the scenario dump has dim 2 and 2 classes
    pytest.param(json.dumps(LinearProbe(np.zeros((2, 3)), np.zeros(2)).to_dict()),
                 "bad_head.json: the head has dim 3 and 2 outputs, but the dump has dim 2 "
                 "and 2 classes", id="wider-than-the-dump"),
    pytest.param(json.dumps(LinearProbe(np.zeros((3, 2)), np.zeros(3)).to_dict()),
                 "bad_head.json: the head has dim 2 and 3 outputs, but the dump has dim 2 "
                 "and 2 classes", id="more-outputs-than-classes"),
])
def test_malformed_head_exits_two_naming_the_file(runner, tmp_path, text, message):
    dump, _ = _scenario_files(tmp_path, spc=20)
    head = tmp_path / "bad_head.json"
    head.write_text(text)
    res = runner.invoke(main, ["diagnose", "--dump", str(dump), "--head", str(head),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert message in res.output


@given(data=st.data())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_head_with_any_part_replaced_exits_cleanly(runner, tmp_path, data):
    # one field of a valid head (half the time), or one value inside it,
    # becomes any JSON value (integers unbounded), often a numeric array of
    # another shape
    dump = tmp_path / "scn.bin"
    if not dump.exists():
        _scenario_files(tmp_path, spc=20)
    obj = _head_with()
    field = data.draw(st.sampled_from(sorted(obj)))
    inside = st.sampled_from([()] + list(_leaf_paths(obj[field])))
    *parents, last = (field,) + data.draw(st.just(()) | inside)
    target = obj
    for key in parents:
        target = target[key]
    target[last] = data.draw(_JSON_VALUES | _NUMERIC_ARRAYS)
    head = tmp_path / "fuzzed_head.json"
    head.write_text(json.dumps(obj))
    res = runner.invoke(main, ["diagnose", "--dump", str(dump), "--head", str(head),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code in (0, 2, 3), res.output
    assert isinstance(res.exception, (SystemExit, type(None)))
    assert "Traceback" not in res.output
    if res.exit_code == 2:
        assert "fuzzed_head.json" in res.output


def test_head_path_that_is_a_directory_exits_two(runner, tmp_path):
    dump, _ = _scenario_files(tmp_path, spc=20)
    head = tmp_path / "head_dir"
    head.mkdir()
    res = runner.invoke(main, ["diagnose", "--dump", str(dump), "--head", str(head),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert "head_dir" in res.output


@pytest.mark.parametrize("command", [
    pytest.param(["diagnose", "--dump", "DUMP", "--head", "HEAD"], id="diagnose"),
    pytest.param(["verify", "--suite", "prop1", "--trials", "1"], id="verify"),
    pytest.param(["scenario", "--kind", "success", "--seed", "0", "--samples-per-cell", "20"],
                 id="scenario"),
    pytest.param(["pca", "--dump", "DUMP"], id="pca"),
])
def test_out_path_that_is_a_file_exits_two_naming_it(runner, tmp_path, monkeypatch, command):
    dump, head = _scenario_files(tmp_path, spc=20)
    taken = tmp_path / "taken.txt"
    taken.write_text("not a directory\n")
    # the output directory is checked before the diagnosis or the PCA runs
    called = []
    monkeypatch.setattr(cli, "diagnose", lambda *args: called.append("diagnose"))
    monkeypatch.setattr(expt, "pca2d", lambda *args: called.append("pca2d"))
    args = [{"DUMP": str(dump), "HEAD": str(head)}.get(a, a) for a in command]
    res = runner.invoke(main, args + ["--out", str(taken)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert f"cannot make output directory {taken}" in res.output
    assert taken.read_text() == "not a directory\n"
    assert called == []


def _python(*args, check=False):
    """``python *args`` in a fresh process that imports this checkout's dgdx,
    with numpy's warnings printed as they would be outside the test suite."""
    src = str(Path(dgdx.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=check)


def test_importing_the_cli_loads_no_scipy():
    code = ("import sys, dgdx.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _python("-c", code, check=True).stdout.strip() == "[]"


@pytest.mark.parametrize("args, name", [
    # one sample per class: 80/20 leaves every class without fit samples
    (["train", "--samples-per-domain", "3"], "samples_per_domain"),
    (["train", "--samples-per-domain", "5"], "samples_per_domain"),
    # features past float32's range
    (["scenario", "--kind", "success", "--cluster-std", "1e300"], "non-finite feature value"),
], ids=["samples-3", "samples-5", "cluster-std-1e300"])
def test_rejected_input_exits_two_without_a_warning(tmp_path, args, name):
    proc = _python("-m", "dgdx.cli", *args, "--seed", "0", "--out", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert name in proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


class TestPcaCommand:
    def test_2d_dump_full_variance(self, runner, tmp_path):
        dump, _ = _scenario_files(tmp_path, kind="success", spc=40)
        res = runner.invoke(main, ["pca", "--dump", str(dump), "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        var = json.loads((tmp_path / "variance.json").read_text())
        assert sum(var["explained"]) == pytest.approx(1.0, abs=1e-9)
        header = (tmp_path / "pca.csv").read_text().splitlines()[0]
        assert header.strip() == "domain_id,label,pc1,pc2"

    @pytest.mark.parametrize("dim, scale, reason", [
        (1, 1.0, "pca2d needs dim >= 2"),
        (3, 0.0, "data has zero variance"),
    ])
    def test_degenerate_dump_exits_two_naming_the_reason(self, runner, tmp_path, dim, scale,
                                                         reason):
        n = 24
        rows = np.arange(n)
        domains = (DomainMeta(0, "a", ROLE_TRAIN), DomainMeta(1, "b", ROLE_TRAIN),
                   DomainMeta(2, "t", ROLE_TEST))
        z = scale * np.random.default_rng(0).normal(size=(n, dim))
        ds = RepresentationDataset(dim, 2, domains, rows % 3, (rows // 3) % 2, (rows // 6) % 2, z)
        dump = tmp_path / "d.bin"
        save_dump(ds, dump)
        res = runner.invoke(main, ["pca", "--dump", str(dump), "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert f"error: {reason}" in res.output
        assert not (tmp_path / "pca.csv").exists()

    def test_peak_memory_is_the_dataset_and_one_float64_copy(self, runner, tmp_path):
        # pca.csv is written row by row, so no per-row Python objects pile up
        n, dim = 20_000, 8
        rng = np.random.default_rng(0)
        domains = (DomainMeta(0, "a", ROLE_TRAIN), DomainMeta(1, "b", ROLE_TRAIN),
                   DomainMeta(2, "t", ROLE_TEST))
        ds = RepresentationDataset(dim, 2, domains, np.arange(n) % 3, np.arange(n) % 5 == 4,
                                   np.arange(n) // 3 % 2, rng.normal(size=(n, dim)))
        dump = tmp_path / "d.bin"
        save_dump(ds, dump)
        args = ["pca", "--dump", str(dump), "--out", str(tmp_path)]
        runner.invoke(main, args)  # a first run imports what the command imports on first use
        res, peak = traced_peak(runner.invoke, main, args)
        assert res.exit_code == 0, res.output
        own = sum(a.nbytes for a in (ds.domain_ids, ds.splits, ds.labels, ds.z))
        # the dump, pca2d's float64 copy of the rows and the coordinates, plus 1 MiB
        assert peak <= own + n * dim * 8 + n * 2 * 8 + (1 << 20)


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, runner, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            res = runner.invoke(main, ["scenario", "--kind", "underfit", "--seed", "9",
                                       "--samples-per-cell", "40", "--verify",
                                       "--out", str(out)])
            assert res.exit_code == 0
            outs.append(out)
        for fname in ("scenario.bin", "expectation.json", "verification.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


class TestTrainSweepTrajectory:
    FAST = ["--samples-per-domain", "90", "--steps-per-epoch", "5",
            "--hidden-width", "8", "--learning-rate", "0.1"]

    def test_train_writes_reports(self, runner, tmp_path):
        res = runner.invoke(main, ["train", "--algorithm", "erm", "--seed", "0",
                                   "--epochs", "2", *self.FAST, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        for name in ("representations.bin", "head.json", "diagnosis.json",
                     "diagnosis.csv", "training.json"):
            assert (tmp_path / name).exists()

    def test_sweep_single_beta_one_row(self, runner, tmp_path):
        res = runner.invoke(main, ["sweep", "--algorithm", "erm", "--betas", "0",
                                   "--seed", "0", "--epochs", "2", *self.FAST,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "sweep.csv").read_bytes().split(b"\r\n")
        assert lines[0].startswith(b"beta_or_epoch,e0,e1,e2,e3,d0,d1,d2,")
        assert len([l for l in lines if l]) == 2

    def test_sweep_rows_are_sweep_betas_rows(self, runner, tmp_path):
        res = runner.invoke(main, ["sweep", "--algorithm", "group-dro", "--betas", "0.5,2",
                                   "--seed", "1", "--epochs", "2", *self.FAST,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        raw = expt.make_dataset(expt.SyntheticColoredSpec(seed=1, samples_per_domain=90))
        base = expt.TrainConfig(algorithm="group-dro", beta=0.5, epochs=2, steps_per_epoch=5,
                                learning_rate=0.1, hidden_width=8, seed=1)
        rows = expt.sweep_beta(raw, [0.5, 2.0], base, ROLE_VALID)
        expected = [{"beta": r.beta, "train_holdout_error": r.diagnosis.e0_prime,
                     "diagnosis": r.diagnosis.to_dict()} for r in rows]
        report = json.loads((tmp_path / "sweep.json").read_text())
        assert report["rows"] == json.loads(json.dumps(expected))
        lines = (tmp_path / "sweep.csv").read_bytes().split(b"\r\n")
        assert lines[1:3] == [",".join(csv_row(r.diagnosis, (repr(r.beta),))).encode()
                              for r in rows]

    def test_trajectory_rows_and_correlation_json(self, runner, tmp_path):
        res = runner.invoke(main, ["trajectory", "--algorithm", "cond-invariance",
                                   "--beta", "1.0", "--epochs", "4", "--seed", "4",
                                   *self.FAST, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        lines = [l for l in (tmp_path / "trajectory.csv").read_bytes().split(b"\r\n") if l]
        assert len(lines) == 5  # header + 4 epochs
        corr = json.loads((tmp_path / "correlations.json").read_text())
        assert "pearson_e3_d1" in corr
        assert len(corr["e3_prime_series"]) == 4

    def test_sweep_invalid_betas_exit_two(self, runner, tmp_path):
        res = runner.invoke(main, ["sweep", "--algorithm", "erm", "--betas", "x,y",
                                   "--seed", "0", "--out", str(tmp_path)])
        assert res.exit_code == 2

    def test_diverging_training_exits_three_naming_the_epoch(self, runner, tmp_path):
        # the only exit-3 path of training: the objective overflows
        res = runner.invoke(main, ["train", "--learning-rate", "1e300", "--epochs", "1",
                                   "--steps-per-epoch", "2", "--samples-per-domain", "90",
                                   "--hidden-width", "4", "--seed", "0",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert "objective non-finite at epoch 1" in res.output

    def test_freeze_features_keeps_the_initial_feature_layers(self, runner, tmp_path):
        res = runner.invoke(main, ["train", "--freeze-features", "--seed", "0", "--epochs", "2",
                                   *self.FAST, "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        raw = expt.make_dataset(expt.SyntheticColoredSpec(seed=0, samples_per_domain=90))
        start = expt.init_params(raw.spec.input_dim, 8, raw.spec.num_classes, 0)
        written = load_dump(tmp_path / "representations.bin", FORMAT_BINARY)
        assert np.array_equal(written.z, expt.export_representations(start, raw).z)

    @pytest.mark.parametrize("args", [
        ["sweep", "--algorithm", "coral", "--samples-per-domain", "1"],
        ["train", "--algorithm", "coral", "--beta", "nan"],
        ["train", "--learning-rate", "nan"],
        ["train", "--learning-rate", "inf"],
        ["trajectory", "--learning-rate", "-1"],
        ["sweep", "--algorithm", "group-dro", "--betas", "inf"],
        ["trajectory", "--epochs", "1"],
        ["sweep", "--algorithm", "erm", "--betas", ","],
    ])
    def test_invalid_training_option_exit_two(self, runner, tmp_path, args):
        res = runner.invoke(main, [*args, "--seed", "0", "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output + (res.stderr or "")

    @pytest.mark.parametrize("command", [
        ["scenario", "--kind", "success"],
        ["verify", "--trials", "2"],
        ["train"],
        ["sweep", "--algorithm", "erm"],
        ["trajectory"],
    ], ids=lambda command: command[0])
    def test_negative_seed_exits_two_naming_the_option(self, runner, tmp_path, command):
        res = runner.invoke(main, [*command, "--seed", "-1", "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        text = res.output + (res.stderr or "")
        assert "Traceback" not in text
        assert "--seed" in text
