import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgdx import core
from dgdx.core import (
    DatasetError,
    DomainMeta,
    DumpError,
    FORMAT_BINARY,
    FORMAT_CSV,
    LinearProbe,
    RepresentationDataset,
    _record_dtype,
    load_dump,
    save_dump,
    sniff_format,
    validate_no_label_shift,
)
from dgdx.metrics import MetricConfig, e0_prime

from conftest import random_dataset


def _two_domain_csv(tmp_path, rows, dim=2, num_classes=2):
    header = (
        '{"version":1,"dim":%d,"num_classes":%d,"domains":'
        '[{"id":0,"name":"a","role":"train"},{"id":1,"name":"b","role":"train"},'
        '{"id":2,"name":"t","role":"test"}]}' % (dim, num_classes)
    )
    path = tmp_path / "dump.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


BASE_ROWS = [
    "0,F,0,0.0,0.0",
    "0,H,0,0.1,0.0",
    "0,F,1,1.0,1.0",
    "0,H,1,1.1,1.0",
    "1,F,0,0.0,0.5",
    "1,H,0,0.1,0.5",
    "1,F,1,1.0,1.5",
    "1,H,1,1.1,1.5",
    "2,F,0,0.2,0.1",
    "2,H,1,0.9,1.2",
]


class TestLoadDump:
    def test_valid_csv_round(self, tmp_path):
        path = _two_domain_csv(tmp_path, BASE_ROWS)
        ds = load_dump(path, FORMAT_CSV)
        assert ds.num_samples == 10
        assert ds.dim == 2 and ds.num_classes == 2
        # row order preserved
        assert ds.labels[2] == 1 and ds.domain_ids[4] == 1

    def test_label_out_of_range_reports_row(self, tmp_path):
        rows = list(BASE_ROWS)
        rows[3] = "0,H,5,1.1,1.0"
        path = _two_domain_csv(tmp_path, rows)
        with pytest.raises(DumpError, match="label out of range at row 4"):
            load_dump(path, FORMAT_CSV)

    def test_unknown_domain_id(self, tmp_path):
        rows = BASE_ROWS + ["7,F,0,0.0,0.0"]
        path = _two_domain_csv(tmp_path, rows)
        with pytest.raises(DumpError, match="unknown domain id 7"):
            load_dump(path, FORMAT_CSV)

    def test_binary_unknown_domain_id_names_its_row(self, tmp_path):
        ds = random_dataset(2, per_cell=4)
        path = tmp_path / "d.bin"
        save_dump(ds, path, FORMAT_BINARY)
        blob = bytearray(path.read_bytes())
        itemsize = _record_dtype(ds.dim).itemsize
        row = 17
        start = len(blob) - (ds.num_samples - (row - 1)) * itemsize
        blob[start : start + 4] = np.uint32(9).tobytes()  # the record's u32 domain id
        path.write_bytes(bytes(blob))
        with pytest.raises(DumpError, match="unknown domain id 9 at row 17$"):
            load_dump(path, FORMAT_BINARY)

    def test_dimension_mismatch_reports_row(self, tmp_path):
        rows = list(BASE_ROWS)
        rows[0] = "0,F,0,0.0"
        path = _two_domain_csv(tmp_path, rows)
        with pytest.raises(DumpError, match="dimension mismatch at row 1"):
            load_dump(path, FORMAT_CSV)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not json\n0,F,0,0.0,0.0\n")
        with pytest.raises(DumpError, match="malformed header"):
            load_dump(path, FORMAT_CSV)

    def test_binary_round_trip_bytes_identical(self, tmp_path):
        ds = random_dataset(7, n_train=3)
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_dump(ds, p1, FORMAT_BINARY)
        ds2 = load_dump(p1, FORMAT_BINARY)
        save_dump(ds2, p2, FORMAT_BINARY)
        assert p1.read_bytes() == p2.read_bytes()
        assert ds.equals(ds2)

    def test_sniff_format(self, tmp_path):
        ds = random_dataset(1)
        pb = tmp_path / "x.bin"
        pc = tmp_path / "x.csv"
        save_dump(ds, pb, FORMAT_BINARY)
        save_dump(ds, pc, FORMAT_CSV)
        assert sniff_format(pb) == FORMAT_BINARY
        assert sniff_format(pc) == FORMAT_CSV


def _line_error(path, message):
    """``pytest.raises`` pattern for exactly this DumpError message."""
    return re.escape(f"{path}: {message}") + "$"


BAD_VALUE = "malformed value at row 5:"


class TestCsvRecordLines:
    # the malformed line sits at line 5 after the header: three records, a blank line, then it
    @pytest.mark.parametrize(
        "line, message",
        [
            ("0,F,0,abc,0.0", f"{BAD_VALUE} could not convert string to float: 'abc'"),
            ("1.5,F,0,0.0,0.0", f"{BAD_VALUE} invalid literal for int() with base 10: '1.5'"),
            ("0,F,1.5,0.0,0.0", f"{BAD_VALUE} invalid literal for int() with base 10: '1.5'"),
            ("0,Q,0,0.0,0.0", f"{BAD_VALUE} bad split flag 'Q'"),
            ("0,FH,0,0.0,0.0", f"{BAD_VALUE} bad split flag 'FH'"),
            ("0, F,0,0.0,0.0", f"{BAD_VALUE} bad split flag ' F'"),
            ("0,F,0,0.0", "dimension mismatch at row 5 (expected 5 fields, got 4)"),
            ("0,F,0,0.0,0.0,0.0", "dimension mismatch at row 5 (expected 5 fields, got 6)"),
            ("#0,F,0,0.0,0.0", f"{BAD_VALUE} invalid literal for int() with base 10: '#0'"),
            ("# comment", "dimension mismatch at row 5 (expected 5 fields, got 1)"),
            ("   ", "dimension mismatch at row 5 (expected 5 fields, got 1)"),
        ],
    )
    def test_malformed_line_names_its_row(self, tmp_path, line, message):
        path = _two_domain_csv(tmp_path, BASE_ROWS[:3] + ["", line] + BASE_ROWS[3:])
        with pytest.raises(DumpError, match=_line_error(path, message)):
            load_dump(path, FORMAT_CSV)

    @pytest.mark.parametrize(
        "line", ["99999999999999999999,F,0,0.0,0.0", "0,F,0,1_0.5,0.0", "0,F,٣,0.0,0.0"]
    )
    def test_values_python_reads_but_numpy_does_not_are_rejected(self, tmp_path, line):
        path = _two_domain_csv(tmp_path, BASE_ROWS + [line])
        with pytest.raises(DumpError, match=re.escape(f"{path}: could not convert string")):
            load_dump(path, FORMAT_CSV)

    def test_blank_line_numbers_parse_and_validation_errors_alike(self, tmp_path):
        # line 5 after the header is the fourth record: both kinds of fault name row 5
        rows = BASE_ROWS[:3] + ["", "0,H,x,1.1,1.0"] + BASE_ROWS[4:]
        path = _two_domain_csv(tmp_path, rows)
        with pytest.raises(DumpError, match="malformed value at row 5:"):
            load_dump(path, FORMAT_CSV)
        rows[4] = "0,H,5,1.1,1.0"
        path = _two_domain_csv(tmp_path, rows)
        message = "label out of range at row 5 (label 5, num_classes 2)"
        with pytest.raises(DumpError, match=_line_error(path, message)):
            load_dump(path, FORMAT_CSV)
        rows[4] = "7,H,1,1.1,1.0"
        path = _two_domain_csv(tmp_path, rows)
        with pytest.raises(DumpError, match=_line_error(path, "unknown domain id 7 at row 5")):
            load_dump(path, FORMAT_CSV)

    def test_blank_lines_are_skipped(self, tmp_path):
        plain = load_dump(_two_domain_csv(tmp_path, BASE_ROWS), FORMAT_CSV)
        spaced = _two_domain_csv(tmp_path, [""] + BASE_ROWS[:5] + ["", ""] + BASE_ROWS[5:])
        spaced = load_dump(spaced, FORMAT_CSV)
        assert spaced.equals(plain)

    def test_no_records_is_an_error(self, tmp_path):
        path = _two_domain_csv(tmp_path, ["", ""])
        with pytest.raises(DumpError, match=_line_error(path, "dataset has no samples")):
            load_dump(path, FORMAT_CSV)

    @pytest.mark.parametrize("value, shown", [("nan", "nan"), ("-inf", "-inf"), ("1e39", "inf")])
    def test_non_finite_feature_names_its_row(self, tmp_path, value, shown):
        rows = BASE_ROWS[:3] + ["", f"0,H,1,1.1,{value}"] + BASE_ROWS[4:]
        path = _two_domain_csv(tmp_path, rows)
        message = f"non-finite feature value {shown} at row 5"
        with pytest.raises(DumpError, match=_line_error(path, message)):
            load_dump(path, FORMAT_CSV)

    def test_binary_non_finite_feature_names_its_row(self, tmp_path):
        ds = random_dataset(2, per_cell=4)
        path = tmp_path / "d.bin"
        save_dump(ds, path, FORMAT_BINARY)
        blob = bytearray(path.read_bytes())
        itemsize = _record_dtype(ds.dim).itemsize
        row = 6
        end = len(blob) - (ds.num_samples - row) * itemsize
        blob[end - 4 : end] = np.float32(np.nan).tobytes()  # the record's last feature
        path.write_bytes(bytes(blob))
        message = "non-finite feature value nan at row 6"
        with pytest.raises(DumpError, match=_line_error(path, message)):
            load_dump(path, FORMAT_BINARY)


def _reference_csv(ds):
    """The CSV dump written one value at a time, with 9 significant digits each."""
    header = core.json.dumps(core._header_dict(ds), separators=(",", ":"))
    lines = [header]
    for i in range(ds.num_samples):
        zs = ",".join(format(float(v), ".9g") for v in ds.z[i])
        lines.append(f"{int(ds.domain_ids[i])},{'FH'[int(ds.splits[i])]},{int(ds.labels[i])},{zs}")
    return ("\n".join(lines) + "\n").encode("utf-8")


HARD_FLOAT32 = np.array(
    [
        -0.0,
        0.0,
        np.finfo(np.float32).smallest_subnormal,
        -np.finfo(np.float32).smallest_subnormal,
        np.finfo(np.float32).tiny,
        np.finfo(np.float32).max,
        -np.finfo(np.float32).max,
        0.1,  # 0.100000001: all 9 digits
        1.0 / 3.0,
        16777217.0,  # rounds to 2**24
        123456789.0,
        1e-7,
    ],
    dtype=np.float32,
)


class TestCsvWriter:
    @pytest.mark.parametrize("dim", [1, 64])
    def test_blocks_equal_a_per_value_reference(self, tmp_path, monkeypatch, dim):
        ds = random_dataset(4, dim=dim, per_cell=5)
        z = ds.z.copy().ravel()
        z[: HARD_FLOAT32.size] = HARD_FLOAT32
        z[-HARD_FLOAT32.size :] = HARD_FLOAT32
        ds = RepresentationDataset(
            dim, ds.num_classes, ds.domains, ds.domain_ids, ds.splits, ds.labels,
            z.reshape(ds.z.shape),
        )
        # blocks of 7 rows, the last one short
        monkeypatch.setattr(core, "_CSV_BLOCK_VALUES", 7 * (3 + dim))
        assert ds.num_samples % 7
        path = tmp_path / "d.csv"
        save_dump(ds, path, FORMAT_CSV)
        assert path.read_bytes() == _reference_csv(ds)
        back = load_dump(path, FORMAT_CSV)
        assert back.equals(ds)
        assert np.array_equal(np.signbit(back.z), np.signbit(ds.z))

    def test_round_trip_bytes_identical(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "_CSV_BLOCK_VALUES", 64)
        ds = random_dataset(9, n_train=3, num_classes=3, dim=4, per_cell=9)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dump(ds, p1, FORMAT_CSV)
        ds2 = load_dump(p1, FORMAT_CSV)
        save_dump(ds2, p2, FORMAT_CSV)
        assert p1.read_bytes() == p2.read_bytes()
        assert ds2.equals(ds)


class TestSaveDump:
    def test_empty_dataset_unconstructible(self):
        with pytest.raises(DatasetError, match="no samples"):
            RepresentationDataset(
                2,
                2,
                (DomainMeta(0, "a", "train"), DomainMeta(1, "b", "train")),
                [],
                [],
                [],
                np.zeros((0, 2), dtype=np.float32),
            )

    def test_csv_one_row_per_sample(self, tmp_path):
        ds = random_dataset(3, per_cell=2)
        path = tmp_path / "d.csv"
        save_dump(ds, path, FORMAT_CSV)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + ds.num_samples

    def test_csv_round_trip_preserves_metrics(self, tmp_path):
        ds = random_dataset(5, n_train=3, per_cell=125)  # 1000 samples
        assert ds.num_samples == 1000
        path = tmp_path / "d.csv"
        save_dump(ds, path, FORMAT_CSV)
        ds2 = load_dump(path, FORMAT_CSV)
        head = LinearProbe(np.array([[0.3, -1.0, 0.2], [0.1, 0.9, -0.4]]), np.array([0.0, -0.5]))
        cfg = MetricConfig()
        assert abs(e0_prime(ds, head, cfg) - e0_prime(ds2, head, cfg)) < 1e-9
        assert np.array_equal(ds.z, ds2.z)  # 9 significant digits are lossless for float32


class TestDatasetInvariants:
    def test_rejects_single_training_domain(self):
        with pytest.raises(DatasetError, match="two training domains"):
            random_dataset(0, n_train=1)

    def test_rejects_bad_label(self):
        ds = random_dataset(0)
        labels = ds.labels.copy()
        labels[0] = 9
        with pytest.raises(DatasetError, match="out of range"):
            RepresentationDataset(
                ds.dim, ds.num_classes, ds.domains, ds.domain_ids, ds.splits, labels, ds.z
            )

    def test_rejects_missing_holdout(self):
        ds = random_dataset(0)
        splits = np.zeros_like(ds.splits)
        with pytest.raises(DatasetError, match="no holdout samples"):
            RepresentationDataset(
                ds.dim, ds.num_classes, ds.domains, ds.domain_ids, splits, ds.labels, ds.z
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, value):
        ds = random_dataset(0)
        z = ds.z.copy()
        z[4, 1] = value
        message = f"non-finite feature value {value} at row 5$"
        with pytest.raises(DatasetError, match=message) as info:
            RepresentationDataset(
                ds.dim, ds.num_classes, ds.domains, ds.domain_ids, ds.splits, ds.labels, z
            )
        assert info.value.index == 4
        assert info.value.at_row(9) == f"non-finite feature value {value} at row 9"

    def test_rejects_wrong_dim(self):
        ds = random_dataset(0)
        with pytest.raises(DatasetError, match="shape"):
            RepresentationDataset(
                ds.dim + 1, ds.num_classes, ds.domains, ds.domain_ids, ds.splits, ds.labels, ds.z
            )

    def test_accepts_valid(self):
        ds = random_dataset(0)
        assert ds.num_samples > 0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_binary_round_trip_property(self, seed):
        import tempfile

        ds = random_dataset(seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/d.bin"
            save_dump(ds, path, FORMAT_BINARY)
            assert load_dump(path, FORMAT_BINARY).equals(ds)


class TestLabelShift:
    def _make(self, counts_by_domain, num_classes=2):
        # counts_by_domain: {domain_id: [n_class0, n_class1, ...]}
        domains = tuple(
            DomainMeta(i, f"d{i}", "train" if i < 2 else "test") for i in counts_by_domain
        )
        ids, splits, labels, zs = [], [], [], []
        for d, counts in counts_by_domain.items():
            for y, n in enumerate(counts):
                for i in range(n):
                    ids.append(d)
                    splits.append(i % 2)
                    labels.append(y)
                    zs.append([float(d), float(y)])
        return RepresentationDataset(2, num_classes, domains, ids, splits, labels,
                                     np.asarray(zs, dtype=np.float32))

    def test_balanced_passes(self):
        ds = self._make({0: [50, 50], 1: [50, 50], 2: [50, 50]})
        assert validate_no_label_shift(ds, tol=0.01).passed

    def test_opposed_marginals_fail(self):
        ds = self._make({0: [90, 10], 1: [10, 90], 2: [50, 50]})
        rep = validate_no_label_shift(ds, tol=0.05)
        assert not rep.passed
        # pooled is 150/150, so the worst (domain, class) deviation is 0.4
        assert rep.max_deviation == pytest.approx(0.4)

    def test_two_percent_deviation_boundary(self):
        ds = self._make({0: [52, 48], 1: [48, 52], 2: [50, 50]})
        rep = validate_no_label_shift(ds, tol=0.02)
        assert rep.max_deviation == pytest.approx(0.02)
        assert rep.passed
        assert not validate_no_label_shift(ds, tol=0.0199).passed

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariant(self, seed):
        ds = random_dataset(seed, n_train=3, num_classes=3, per_cell=6)
        rng = np.random.default_rng(seed + 1)
        perm = rng.permutation(ds.num_samples)
        shuffled = RepresentationDataset(
            ds.dim,
            ds.num_classes,
            tuple(reversed(ds.domains)),
            ds.domain_ids[perm],
            ds.splits[perm],
            ds.labels[perm],
            ds.z[perm],
        )
        a = validate_no_label_shift(ds)
        b = validate_no_label_shift(shuffled)
        assert a.max_deviation == pytest.approx(b.max_deviation, abs=1e-12)
        assert a.passed == b.passed


class TestLinearProbe:
    def test_predict_tie_breaks_low_index(self):
        probe = LinearProbe(np.zeros((3, 2)), np.zeros(3))
        assert probe.predict(np.array([[1.0, 2.0]]))[0] == 0

    def test_json_round_trip(self, tmp_path):
        probe = LinearProbe(np.array([[0.5, -1.5], [2.0, 0.25]]), np.array([0.1, -0.2]))
        path = tmp_path / "p.json"
        probe.save(path)
        back = LinearProbe.load(path)
        assert np.array_equal(back.weights, probe.weights)
        assert np.array_equal(back.bias, probe.bias)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            LinearProbe(np.array([[np.nan, 0.0]]), np.array([0.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="bias"):
            LinearProbe(np.zeros((2, 3)), np.zeros(3))
