import json

import numpy as np
import pytest
from click.testing import CliRunner

from dgdx import expt
from dgdx.cli import main
from dgdx.core import (
    FORMAT_BINARY,
    FORMAT_CSV,
    ROLE_VALID,
    LinearProbe,
    _record_dtype,
    load_dump,
    save_dump,
)
from dgdx.metrics import MetricConfig, csv_row
from dgdx.scenarios import ScenarioSpec, generate

from conftest import random_dataset


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

    def test_instance_file_with_nonuniform_priors(self, runner, tmp_path):
        from dgdx.propositions import random_instance

        inst = random_instance(7, uniform_priors=False)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst.to_dict()))
        res = runner.invoke(main, ["verify", "--suite", "orderings", "--trials", "1",
                                   "--instance", str(path), "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        report = json.loads((tmp_path / "verify.json").read_text())
        d_rows = [e for e in report["entries"] if e["name"] == "d1_le_d2"]
        assert d_rows and d_rows[0]["status"] == "assumption-unmet"


class TestPcaCommand:
    def test_2d_dump_full_variance(self, runner, tmp_path):
        dump, _ = _scenario_files(tmp_path, kind="success", spc=40)
        res = runner.invoke(main, ["pca", "--dump", str(dump), "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        var = json.loads((tmp_path / "variance.json").read_text())
        assert sum(var["explained"]) == pytest.approx(1.0, abs=1e-9)
        header = (tmp_path / "pca.csv").read_text().splitlines()[0]
        assert header.strip() == "domain_id,label,pc1,pc2"


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
        base = expt.TrainConfig(epochs=2, steps_per_epoch=5, learning_rate=0.1,
                                hidden_width=8, seed=1)
        rows = expt.sweep_beta(raw, "group-dro", [0.5, 2.0], base,
                               MetricConfig(target_role=ROLE_VALID))
        expected = [{"beta": r.beta, "train_holdout_error": r.train_holdout_error,
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
