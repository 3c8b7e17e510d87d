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
    ROLE_TEST,
    ROLE_TRAIN,
    RepresentationDataset,
    _col_sum,
    _record_dtype,
    _row_max,
    _row_sum,
    load_dump,
    save_dump,
    sniff_format,
    validate_no_label_shift,
)
from dgdx.metrics import e0_prime

from conftest import random_dataset
from support import damage_binary, damage_csv, replace_header_field, traced_peak


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


def _striped_dataset(n, dim, seed=0):
    """``n`` rows cycling through two training domains and a test domain,
    the fit and holdout splits and two classes (every cell is filled from
    12 rows on)."""
    rows = np.arange(n)
    z = np.random.default_rng(seed).normal(size=(n, dim)).astype(np.float32)
    domains = (DomainMeta(0, "a", "train"), DomainMeta(1, "b", "train"),
               DomainMeta(2, "t", "test"))
    return RepresentationDataset(dim, 2, domains, rows % 3, (rows // 3) % 2, (rows // 6) % 2, z)


class TestBinaryStreaming:
    """The binary loader reads records a chunk at a time into the dataset's arrays."""

    N = 40

    @pytest.fixture
    def dump(self, tmp_path):
        path = tmp_path / "d.bin"
        save_dump(_striped_dataset(self.N, 3), path, FORMAT_BINARY)
        return path

    @staticmethod
    def _chunk_records(monkeypatch, records):
        monkeypatch.setattr(core, "_LOAD_CHUNK_BYTES", records * _record_dtype(3).itemsize)

    # one record per chunk, the whole dump in one chunk, one chunk plus one record
    @pytest.mark.parametrize("records", [1, N, N - 1, 7])
    def test_round_trip_bytes_identical(self, dump, monkeypatch, tmp_path, records):
        self._chunk_records(monkeypatch, records)
        again = tmp_path / "again.bin"
        save_dump(load_dump(dump, FORMAT_BINARY), again, FORMAT_BINARY)
        assert again.read_bytes() == dump.read_bytes()

    @pytest.mark.parametrize("extra", [0, 1])
    def test_default_chunk_boundary_round_trips(self, tmp_path, extra):
        n = core._LOAD_CHUNK_BYTES // _record_dtype(1).itemsize + extra
        ds = _striped_dataset(n, 1)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dump(ds, p1, FORMAT_BINARY)
        back = load_dump(p1, FORMAT_BINARY)
        save_dump(back, p2, FORMAT_BINARY)
        assert back.equals(ds) and p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("z", np.float32(np.nan), "non-finite feature value nan at row 33$"),
            ("domain", 9, "unknown domain id 9 at row 33$"),
            ("label", 4, r"label out of range at row 33 \(label 4, num_classes 2\)$"),
        ],
    )
    def test_fault_past_the_first_chunk_names_its_row(self, dump, monkeypatch, field, value,
                                                      message):
        self._chunk_records(monkeypatch, 7)
        blob = bytearray(dump.read_bytes())
        dtype = _record_dtype(3)
        rec = np.frombuffer(blob, dtype=dtype, offset=len(blob) - self.N * dtype.itemsize)
        if field == "z":
            rec["z"][32, 1] = value
        else:
            rec[field][32] = value
        dump.write_bytes(bytes(blob))
        with pytest.raises(DumpError, match=message):
            load_dump(dump, FORMAT_BINARY)

    @pytest.mark.parametrize("flag", [2, 7, 255])
    def test_bad_split_flag_names_its_row(self, dump, flag):
        blob = bytearray(dump.read_bytes())
        dtype = _record_dtype(3)
        rec = np.frombuffer(blob, dtype=dtype, offset=len(blob) - self.N * dtype.itemsize)
        rec["split"][4] = flag
        dump.write_bytes(bytes(blob))
        with pytest.raises(DumpError, match=f"split flag {flag} at row 5 is not 0 "
                                            r"\(fit\) or 1 \(holdout\)$"):
            load_dump(dump, FORMAT_BINARY)

    def test_records_cut_after_the_size_check(self, tmp_path, monkeypatch):
        # more records than the file object buffers with the header, so the cut shows
        path = tmp_path / "d.bin"
        save_dump(_striped_dataset(2_000, 3), path, FORMAT_BINARY)
        body = 2_000 * _record_dtype(3).itemsize
        parse = core._parse_header

        def parse_then_cut(text, where):
            with open(path, "r+b") as fh:
                fh.truncate(path.stat().st_size - 30)
            return parse(text, where)

        monkeypatch.setattr(core, "_parse_header", parse_then_cut)
        with pytest.raises(DumpError, match=f"reads short: {body - 30} of {body} bytes$"):
            load_dump(path, FORMAT_BINARY)

    def test_load_holds_the_dataset_and_one_chunk(self, tmp_path):
        # a ~5 MiB dump; the whole file read at once held more than three times it
        path = tmp_path / "d.bin"
        save_dump(_striped_dataset(10_000, 128), path, FORMAT_BINARY)
        ds, peak = traced_peak(load_dump, path, FORMAT_BINARY)
        own = sum(a.nbytes for a in (ds.domain_ids, ds.splits, ds.labels, ds.z))
        assert peak <= own + core._LOAD_CHUNK_BYTES + (1 << 20)

    def test_save_holds_one_record_array(self, tmp_path):
        # a ~5 MiB dump; writing the records through a bytes copy held twice it
        ds = _striped_dataset(10_000, 128)
        _, peak = traced_peak(save_dump, ds, tmp_path / "d.bin", FORMAT_BINARY)
        assert peak <= ds.num_samples * _record_dtype(ds.dim).itemsize + (1 << 20)


class TestBinaryDumpDamage:
    @pytest.fixture(scope="class")
    def dump(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("damage") / "dump.bin"
        save_dump(random_dataset(0), path, FORMAT_BINARY)
        return path, path.read_bytes()

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncated_or_flipped_dump_loads_or_raises_dump_error(self, dump, data):
        path, blob = dump
        path.write_bytes(damage_binary(blob, data))
        try:
            ds = load_dump(path, FORMAT_BINARY)
        except DumpError:
            return
        assert isinstance(ds, RepresentationDataset)


class TestCsvDumpDamage:
    @pytest.fixture(scope="class")
    def dump(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv-damage") / "dump.csv"
        save_dump(random_dataset(0), path, FORMAT_CSV)
        return path, path.read_bytes()

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_damaged_dump_loads_or_raises_dump_error(self, dump, data):
        path, blob = dump
        path.write_bytes(damage_csv(blob, data))
        try:
            ds = load_dump(path, FORMAT_CSV)
        except DumpError:
            return
        assert isinstance(ds, RepresentationDataset)


class TestBinaryRecordRange:
    """A binary record's domain and label fields are unsigned 32-bit, so
    ``save_dump`` refuses what they cannot hold; CSV holds it."""

    @pytest.mark.parametrize("bad_id", [-1, 2**32 + 1])
    def test_out_of_range_domain_id_is_refused_naming_it(self, tmp_path, bad_id):
        ds = random_dataset(0)  # domains 0 and 1 train, 2 test
        ids = np.where(ds.domain_ids == 2, bad_id, ds.domain_ids)
        domains = ds.domains[:2] + (DomainMeta(bad_id, "t", "test"),)
        odd = RepresentationDataset(ds.dim, ds.num_classes, domains, ids, ds.splits,
                                    ds.labels, ds.z)
        save_dump(odd, tmp_path / "d.csv", FORMAT_CSV)
        loaded = load_dump(tmp_path / "d.csv", FORMAT_CSV)
        assert loaded.equals(odd)
        row = int(np.flatnonzero(ids == bad_id)[0]) + 1
        with pytest.raises(DumpError, match=f"domain id {bad_id} at row {row} does not fit"):
            save_dump(loaded, tmp_path / "d.bin", FORMAT_BINARY)
        assert not (tmp_path / "d.bin").exists()

    def test_label_beyond_u32_is_refused_naming_it(self, tmp_path):
        ds = random_dataset(0)
        labels = np.where(ds.labels == 1, 2**32, ds.labels)
        odd = RepresentationDataset(ds.dim, 2**32 + 1, ds.domains, ds.domain_ids, ds.splits,
                                    labels, ds.z)
        with pytest.raises(DumpError, match=f"label {2**32} at row 9 does not fit"):
            save_dump(odd, tmp_path / "d.bin", FORMAT_BINARY)

    def test_largest_id_round_trips(self, tmp_path):
        ds = random_dataset(0)
        ids = np.where(ds.domain_ids == 2, 2**32 - 1, ds.domain_ids)
        domains = ds.domains[:2] + (DomainMeta(2**32 - 1, "t", "test"),)
        edge = RepresentationDataset(ds.dim, ds.num_classes, domains, ids, ds.splits,
                                     ds.labels, ds.z)
        save_dump(edge, tmp_path / "d.bin", FORMAT_BINARY)
        assert load_dump(tmp_path / "d.bin", FORMAT_BINARY).equals(edge)


class TestHeaderSizes:
    @pytest.mark.parametrize("fmt", [FORMAT_BINARY, FORMAT_CSV])
    @pytest.mark.parametrize(
        "field, value",
        [("dim", -1), ("dim", 0), ("dim", 2**40), ("dim", 1.5), ("dim", True), ("dim", "3"),
         ("dim", 1e400), ("num_classes", 2**40), ("num_classes", 49), ("num_classes", -2),
         ("num_classes", 2.0), ("num_classes", False)],
    )
    def test_bad_size_is_a_dump_error_naming_the_field(self, tmp_path, fmt, field, value):
        path = tmp_path / "dump"
        save_dump(random_dataset(0), path, fmt)  # 48 samples of dim 3
        path.write_bytes(replace_header_field(path.read_bytes(), field, value))
        with pytest.raises(DumpError, match=f"'{field}'"):
            load_dump(path, fmt)

    @pytest.mark.parametrize("fmt", [FORMAT_BINARY, FORMAT_CSV])
    def test_as_many_classes_as_samples_loads(self, tmp_path, fmt):
        path = tmp_path / "dump"
        save_dump(random_dataset(0), path, fmt)
        path.write_bytes(replace_header_field(path.read_bytes(), "num_classes", 48))
        assert load_dump(path, fmt).num_classes == 48

    def test_binary_dim_that_does_not_divide_the_records_names_the_field(self, tmp_path):
        path = tmp_path / "dump.bin"
        save_dump(random_dataset(0), path, FORMAT_BINARY)  # 48 records of 21 bytes
        path.write_bytes(replace_header_field(path.read_bytes(), "dim", 4))
        with pytest.raises(DumpError, match="not a whole number of records .*'dim' 4"):
            load_dump(path, FORMAT_BINARY)


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
        assert abs(e0_prime(ds, head) - e0_prime(ds2, head)) < 1e-9
        assert np.array_equal(ds.z, ds2.z)  # 9 significant digits are lossless for float32

    @pytest.mark.parametrize("fmt", [FORMAT_BINARY, FORMAT_CSV])
    def test_round_trip_keeps_the_header_order(self, tmp_path, fmt):
        ds = random_dataset(0, n_train=4, n_test=3)
        domains = tuple(ds.domains[d] for d in (5, 2, 6, 0, 3, 4, 1))
        path, again = tmp_path / f"d.{fmt}", tmp_path / f"again.{fmt}"
        save_dump(RepresentationDataset(ds.dim, ds.num_classes, domains, ds.domain_ids,
                                        ds.splits, ds.labels, ds.z), path, fmt)
        loaded = load_dump(path, fmt)
        assert loaded.domains == domains
        save_dump(loaded, again, fmt)
        assert again.read_bytes() == path.read_bytes()


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

    @pytest.mark.parametrize("value, shown", [(1e39, "inf"), (-1e39, "-inf")])
    def test_rejects_float64_features_past_float32_range(self, value, shown):
        # the float32 cast overflows to inf without a warning; the error names the row
        ds = random_dataset(0)
        z = ds.z.astype(np.float64)
        z[4, 1] = value
        message = f"non-finite feature value {shown} at row 5$"
        with pytest.raises(DatasetError, match=message) as info:
            RepresentationDataset(
                ds.dim, ds.num_classes, ds.domains, ds.domain_ids, ds.splits, ds.labels, z
            )
        assert info.value.index == 4

    def test_rejects_wrong_dim(self):
        ds = random_dataset(0)
        with pytest.raises(DatasetError, match="shape"):
            RepresentationDataset(
                ds.dim + 1, ds.num_classes, ds.domains, ds.domain_ids, ds.splits, ds.labels, ds.z
            )

    def test_accepts_valid(self):
        ds = random_dataset(0)
        assert ds.num_samples > 0

    def test_role_ids_ascend_whatever_the_header_order(self):
        ds = random_dataset(0, n_train=4, n_test=3)
        reversed_header = RepresentationDataset(ds.dim, ds.num_classes, ds.domains[::-1],
                                                ds.domain_ids, ds.splits, ds.labels, ds.z)
        assert reversed_header.domain_ids_with_role(ROLE_TRAIN) == [0, 1, 2, 3]
        assert reversed_header.domain_ids_with_role(ROLE_TEST) == [4, 5, 6]

    def test_cell_rows_list_each_cell_in_row_order(self):
        ds = random_dataset(6, n_train=3, n_test=2, per_cell=10)
        order = np.random.default_rng(0).permutation(ds.num_samples)
        ids = np.array([7, -3, 2, 40, 0])[ds.domain_ids[order]]
        domains = tuple(DomainMeta(int(i), dm.name, dm.role)
                        for i, dm in zip([7, -3, 2, 40, 0], ds.domains))
        mixed = RepresentationDataset(ds.dim, ds.num_classes, domains, ids, ds.splits[order],
                                      ds.labels[order], ds.z[order])
        expected = {(dm.id, s): np.flatnonzero((ids == dm.id) & (mixed.splits == s))
                    for dm in domains for s in (0, 1)}
        assert mixed.cell_rows.keys() == expected.keys()
        for key, rows in expected.items():
            assert np.array_equal(mixed.cell_rows[key], rows)

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


def _reduction_inputs(n, k, rng):
    """Rows of normal draws, of magnitudes spread over 1e-300..1e300 with both
    signs, and of NaN, infinities, signed zeros and extremes mixed."""
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0, 1e300, -1e300,
                        1e-300, 5e-324])
    yield rng.normal(size=(n, k))
    yield rng.normal(size=(n, k)) * 10.0 ** rng.integers(-300, 301, size=(n, k))
    yield rng.choice(special, size=(n, k))
    yield rng.choice(np.array([0.0, -0.0]), size=(n, k))


def _same_bits_or_both_nan(got, want):
    # a NaN result can carry either sign bit when NaNs of both signs meet (see core)
    assert got.shape == want.shape and got.dtype == want.dtype
    same = got.view(np.uint64) == want.view(np.uint64)
    assert (same | (np.isnan(got) & np.isnan(want))).all()


@pytest.mark.parametrize("k", range(1, 13))
@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 48, 2880])
def test_short_row_reductions_equal_the_library_bits(n, k):
    # k = 1 takes _col_sum's library call, k >= 8 the row reductions' library calls
    rng = np.random.default_rng(100 * n + k)
    with np.errstate(invalid="ignore", over="ignore"):
        for a in _reduction_inputs(n, k, rng):
            _same_bits_or_both_nan(_row_max(a), a.max(axis=1, keepdims=True))
            _same_bits_or_both_nan(_row_sum(a), a.sum(axis=1, keepdims=True))
            _same_bits_or_both_nan(_col_sum(a), a.sum(axis=0))
            _same_bits_or_both_nan(_col_sum(a) / n, a.mean(axis=0))
