import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from dgdx import expt
from dgdx.cli import main
from dgdx.core import (
    FORMAT_BINARY,
    FORMAT_CSV,
    ROLE_TRAIN,
    ROLE_VALID,
    DomainMeta,
    LinearProbe,
    RepresentationDataset,
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


def _family_of_dim(dim):
    from dgdx.propositions import random_instance

    return random_instance(7, dim=dim).domain_family.to_dict()


def _family_with_bias(name, value):
    family = _instance_with()[name]
    family["probes"][0]["bias"][0] = value
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
    (_instance_with(domain_family=_family_of_dim(3)), "domain_family"),
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


def _leaf_paths(obj, path=()):
    if isinstance(obj, (list, dict)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _leaf_paths(value, path + (key,))
    else:
        yield path


# A finite parameter near the float limit overflows the probe scores; the
# command line shows numpy's RuntimeWarning and goes on, so here it is shown
# in the warning summary instead of being raised as the suite's default does.
@pytest.mark.filterwarnings("default::RuntimeWarning")
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


@pytest.mark.parametrize("text", [
    pytest.param(json.dumps(_head_with(bias=[_BEYOND_FLOAT, 0.0])), id="bias-beyond-float"),
    pytest.param(json.dumps(_head_with(weights=[[0.0, -_BEYOND_FLOAT], [0.0, 0.0]])),
                 id="weight-beyond-float"),
    pytest.param(json.dumps(_head_with(num_outputs=None)), id="num-outputs-null"),
    pytest.param(json.dumps(_head_with(num_outputs=float("inf"))), id="num-outputs-inf"),
    pytest.param(json.dumps([1, 2]), id="not-an-object"),
    pytest.param(_NESTED, id="nested-arrays"),
])
def test_malformed_head_exits_two_naming_the_file(runner, tmp_path, text):
    dump, _ = _scenario_files(tmp_path, spc=20)
    head = tmp_path / "bad_head.json"
    head.write_text(text)
    res = runner.invoke(main, ["diagnose", "--dump", str(dump), "--head", str(head),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert "bad_head.json" in res.output


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

    @pytest.mark.parametrize("args", [
        ["sweep", "--algorithm", "coral", "--samples-per-domain", "1"],
        ["train", "--algorithm", "coral", "--beta", "nan"],
        ["sweep", "--algorithm", "group-dro", "--betas", "inf"],
        ["trajectory", "--epochs", "1"],
    ])
    def test_invalid_training_option_exit_two(self, runner, tmp_path, args):
        res = runner.invoke(main, [*args, "--seed", "0", "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output + (res.stderr or "")
