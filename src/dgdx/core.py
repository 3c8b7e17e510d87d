"""Data model for multi-domain representation datasets and dump I/O.

A dataset holds per-sample representation vectors together with a class
label, a domain id and a fit/holdout split flag.  Probes are trained on
the fit samples and every reported metric is evaluated on the holdout
samples.  Datasets are immutable after construction.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

ROLE_TRAIN = "train"
ROLE_VALID = "valid"
ROLE_TEST = "test"
ROLES = (ROLE_TRAIN, ROLE_VALID, ROLE_TEST)

SPLIT_FIT = 0
SPLIT_HOLDOUT = 1
SPLIT_CHARS = {"F": SPLIT_FIT, "H": SPLIT_HOLDOUT}
SPLIT_NAMES = {SPLIT_FIT: "F", SPLIT_HOLDOUT: "H"}

_MAGIC = b"DGDX"
_FORMAT_VERSION = 1
# values formatted at once when writing a CSV dump, so memory does not grow with its rows
_CSV_BLOCK_VALUES = 1 << 16
# bytes of records read at once from a binary dump, so the load holds no second copy of it
_LOAD_CHUNK_BYTES = 1 << 20

FORMAT_CSV = "csv"
FORMAT_BINARY = "binary"


class DatasetError(ValueError):
    """Raised when a dataset violates a structural invariant.

    A fault in one sample keeps that sample's position as ``index``; the
    message then names it as row ``index + 1``, and ``at_row(row)`` gives
    the same message for a row numbered otherwise (a dump's line, say).
    """

    def __init__(self, message, index=None):
        self.template, self.index = message, index
        super().__init__(message if index is None else message.format(row=index + 1))

    def at_row(self, row):
        return self.template.format(row=row)


class DumpError(ValueError):
    """Raised when a dump file is malformed or inconsistent with its header."""


@dataclass(frozen=True)
class DomainMeta:
    id: int
    name: str
    role: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise DatasetError(f"unknown domain role {self.role!r} (expected one of {ROLES})")


class RepresentationDataset:
    """Immutable collection of representation samples across domains.

    Representations are stored as float32, matching the on-disk binary
    format, so that a save/load round trip is bit exact.
    """

    def __init__(self, dim, num_classes, domains, domain_ids, splits, labels, z):
        self.dim = int(dim)
        self.num_classes = int(num_classes)
        self.domains = tuple(domains)
        self.domain_ids = np.ascontiguousarray(domain_ids, dtype=np.int64)
        self.splits = np.ascontiguousarray(splits, dtype=np.uint8)
        self.labels = np.ascontiguousarray(labels, dtype=np.int64)
        # a value past float32's range becomes inf, which _validate reports with its row
        with np.errstate(over="ignore"):
            self.z = np.ascontiguousarray(z, dtype=np.float32)
        self._validate()
        for arr in (self.domain_ids, self.splits, self.labels, self.z):
            arr.flags.writeable = False

    def _validate(self):
        if self.dim <= 0:
            raise DatasetError("dim must be positive")
        if self.num_classes <= 0:
            raise DatasetError("num_classes must be positive")
        seen = set()
        for dm in self.domains:
            if not isinstance(dm, DomainMeta):
                raise DatasetError("domains must be DomainMeta instances")
            if dm.id in seen:
                raise DatasetError(f"duplicate domain id {dm.id}")
            seen.add(dm.id)
        n1 = sum(1 for dm in self.domains if dm.role == ROLE_TRAIN)
        if n1 < 2:
            raise DatasetError("at least two training domains are required")
        n = self.domain_ids.shape[0]
        if n == 0:
            raise DatasetError("dataset has no samples")
        if self.splits.shape != (n,) or self.labels.shape != (n,):
            raise DatasetError("sample arrays have inconsistent lengths")
        if self.z.shape != (n, self.dim):
            raise DatasetError(
                f"representation array has shape {self.z.shape}, expected ({n}, {self.dim})"
            )
        unknown = np.flatnonzero(~np.isin(self.domain_ids, list(seen)))
        if unknown.size:
            i = int(unknown[0])
            raise DatasetError(f"unknown domain id {int(self.domain_ids[i])} at row {{row}}", i)
        bad = np.flatnonzero((self.labels < 0) | (self.labels >= self.num_classes))
        if bad.size:
            i = int(bad[0])
            raise DatasetError(
                "label out of range at row {row} "
                f"(label {int(self.labels[i])}, num_classes {self.num_classes})",
                i,
            )
        if not all_finite(self.z):
            i = int(np.flatnonzero(~np.isfinite(self.z).all(axis=1))[0])
            value = self.z[i][~np.isfinite(self.z[i])][0]
            raise DatasetError(f"non-finite feature value {value} at row {{row}}", i)
        bad = np.flatnonzero(~np.isin(self.splits, [SPLIT_FIT, SPLIT_HOLDOUT]))
        if bad.size:
            i = int(bad[0])
            raise DatasetError(f"split flag {int(self.splits[i])} at row {{row}} "
                               "is not 0 (fit) or 1 (holdout)", i)
        for dm in self.domains:
            for split, name in ((SPLIT_FIT, "fit"), (SPLIT_HOLDOUT, "holdout")):
                if (dm.id, split) not in self.cell_rows:
                    raise DatasetError(f"domain {dm.id} has no {name} samples")

    # -- convenience accessors -------------------------------------------------

    @property
    def num_samples(self):
        return int(self.domain_ids.shape[0])

    def domain_ids_with_role(self, role):
        """The ids of the domains with ``role``, ascending: every metric takes
        its domains in this order, whatever order the header lists them in."""
        return sorted(dm.id for dm in self.domains if dm.role == role)

    @cached_property
    def cell_rows(self):
        """``{(domain id, split): row indices}``, each cell's rows in row order.

        ``_validate`` builds it while the dataset is constructed.  Built later,
        this long-lived index can sit above heap memory freed in between and
        keep that memory resident.
        """
        order = np.lexsort((self.splits, self.domain_ids))  # stable: row order within a cell
        order.flags.writeable = False
        ids, splits = self.domain_ids[order], self.splits[order]
        starts = np.flatnonzero(np.r_[True, (ids[1:] != ids[:-1]) | (splits[1:] != splits[:-1])])
        cells = np.split(order, starts[1:])
        return {(int(ids[s]), int(splits[s])): rows for s, rows in zip(starts, cells)}

    def equals(self, other):
        return (
            self.dim == other.dim
            and self.num_classes == other.num_classes
            and self.domains == other.domains
            and np.array_equal(self.domain_ids, other.domain_ids)
            and np.array_equal(self.splits, other.splits)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.z, other.z)
        )


def all_finite(a):
    """True if every value of ``a`` is finite.  Its minimum and maximum carry
    any NaN or infinity, so no mask of ``a``'s size is built."""
    return bool(np.isfinite(a.min(initial=0.0)) and np.isfinite(a.max(initial=0.0)))


# -- reductions over short rows -----------------------------------------------------
#
# numpy reduces along a short axis slowly: on a (2,880, 3) array a row max took 125 us and a
# column-by-column np.maximum 7 us.  These helpers give the library call's bits on C-contiguous
# float64 arrays, measured with numpy 2.4 at widths 1-32, except that a NaN result can carry
# the other sign bit when NaNs of both signs meet (nothing downstream reads a NaN's sign):
# - a row max or row sum taken column by column equals the library's below _SHORT_ROW
#   columns.  From 8 columns on numpy changes order (its pairwise sum, and a vector max that
#   differs in the sign of a zero maximum at 9-12, 17-19 and 25 columns), so the helpers call
#   the library there.  A row sum starts from +0.0, as numpy's does.
# - einsum("ij->j") equals sum(axis=0) from width 2 on, and mean(axis=0) is sum(axis=0) / n.
#   At width 1 sum(axis=0) is pairwise and einsum is not, so _col_sum calls the library there.
#   einsum("ij->i") row sums differ from width 3 on and are not used.
_SHORT_ROW = 8


def _row_max(a):
    """``a.max(axis=1, keepdims=True)`` of a 2-d array."""
    if a.shape[1] >= _SHORT_ROW:
        return a.max(axis=1, keepdims=True)
    out = a[:, :1].copy()
    for j in range(1, a.shape[1]):
        np.maximum(out, a[:, j : j + 1], out=out)
    return out


def _row_sum(a):
    """``a.sum(axis=1, keepdims=True)`` of a 2-d array."""
    if a.shape[1] >= _SHORT_ROW:
        return a.sum(axis=1, keepdims=True)
    out = a[:, :1] + 0.0
    for j in range(1, a.shape[1]):
        out += a[:, j : j + 1]
    return out


def _col_sum(a):
    """``a.sum(axis=0)`` of a 2-d array."""
    return a.sum(axis=0) if a.shape[1] == 1 else np.einsum("ij->j", a)


# -- linear probes -------------------------------------------------------------


class LinearProbe:
    """Affine map from representation space to class or domain scores.

    Prediction is argmax over scores; ties resolve to the lowest output
    index so results are reproducible across platforms.
    """

    def __init__(self, weights, bias):
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        self.bias = np.ascontiguousarray(bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("probe weights must be a 2-d matrix")
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError("probe bias length must equal the weight row count")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("probe parameters must be finite")

    @property
    def num_outputs(self):
        return int(self.weights.shape[0])

    @property
    def dim(self):
        return int(self.weights.shape[1])

    def scores(self, z):
        z = np.asarray(z, dtype=np.float64)
        if z.shape[-1] != self.dim:
            raise ValueError(f"probe expects dim {self.dim}, got {z.shape[-1]}")
        return z @ self.weights.T + self.bias

    def predict(self, z):
        return np.argmax(self.scores(z), axis=-1)

    def to_dict(self):
        return {
            "weights": self.weights.tolist(),
            "bias": self.bias.tolist(),
            "num_outputs": self.num_outputs,
        }

    @classmethod
    def from_dict(cls, obj):
        try:
            w = np.asarray(obj["weights"], dtype=np.float64)
            b = np.asarray(obj["bias"], dtype=np.float64)
            num_outputs = int(obj["num_outputs"]) if "num_outputs" in obj else None
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed probe object: {exc}") from exc
        probe = cls(w, b)
        if num_outputs is not None and num_outputs != probe.num_outputs:
            raise ValueError("probe num_outputs does not match weight shape")
        return probe

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# -- diagnosis record ----------------------------------------------------------

E_COMPONENTS = ("e0", "e1", "e2", "e3")
D_COMPONENTS = ("d0", "d1", "d2")


@dataclass(frozen=True)
class Diagnosis:
    """The seven primed metrics plus their decomposition into components.

    The component sums telescope bit-exactly: e0+e1+e2+e3 == e3_prime and
    d0+d1+d2 == d2_prime, evaluated left to right.
    """

    e0_prime: float
    e1_prime: float
    e2_prime: float
    e3_prime: float
    e0: float
    e1: float
    e2: float
    e3: float
    d0_prime: float
    d1_prime: float
    d2_prime: float
    d0: float
    d1: float
    d2: float
    probe_meta: dict = field(default_factory=dict)
    negative_component_flags: tuple = ()

    def __post_init__(self):
        for name in ("e0_prime", "e1_prime", "e2_prime", "e3_prime"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name}={v} outside [0, 1]")
        for name in ("d0_prime", "d1_prime", "d2_prime") + E_COMPONENTS + D_COMPONENTS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if ((self.e0 + self.e1) + self.e2) + self.e3 != self.e3_prime:
            raise ValueError("e-components do not sum to e3_prime")
        if (self.d0 + self.d1) + self.d2 != self.d2_prime:
            raise ValueError("d-components do not sum to d2_prime")

    def component(self, name):
        if name not in self.__dataclass_fields__:
            raise KeyError(f"unknown diagnosis field {name!r}")
        return getattr(self, name)

    def to_dict(self):
        out = {name: getattr(self, name) for name in self.__dataclass_fields__}
        out["negative_component_flags"] = list(self.negative_component_flags)
        return out


# -- label-shift validation ----------------------------------------------------


@dataclass(frozen=True)
class LabelShiftReport:
    per_domain: dict
    pooled: np.ndarray
    max_deviation: float
    tol: float
    passed: bool

    def to_dict(self):
        return {
            "per_domain": {str(k): list(map(float, v)) for k, v in self.per_domain.items()},
            "pooled": [float(v) for v in self.pooled],
            "max_deviation": float(self.max_deviation),
            "tol": float(self.tol),
            "passed": bool(self.passed),
        }


LABEL_SHIFT_TOL = 0.02  # the default tolerance, also dgdx diagnose's --tol


def validate_no_label_shift(ds, tol=LABEL_SHIFT_TOL):
    """Check that empirical class proportions agree across domains.

    Passes iff the largest |per-domain proportion - pooled proportion| over
    all (domain, class) pairs is at most ``tol``.  This is a diagnostic:
    a violation yields a failed report, not an exception.
    """
    pooled = np.bincount(ds.labels, minlength=ds.num_classes) / ds.num_samples
    per_domain = {}
    max_dev = 0.0
    for dm in ds.domains:
        mask = ds.domain_ids == dm.id
        props = np.bincount(ds.labels[mask], minlength=ds.num_classes) / mask.sum()
        per_domain[dm.id] = props
        max_dev = max(max_dev, float(np.abs(props - pooled).max()))
    # small grace so a deviation of exactly tol is not failed on rounding dust
    return LabelShiftReport(per_domain, pooled, max_dev, float(tol), max_dev <= tol + 1e-12)


# -- dump I/O ------------------------------------------------------------------


def _header_dict(ds):
    return {
        "version": _FORMAT_VERSION,
        "dim": ds.dim,
        "num_classes": ds.num_classes,
        "domains": [{"id": dm.id, "name": dm.name, "role": dm.role} for dm in ds.domains],
    }


def _parse_header(text, where):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DumpError(f"malformed header in {where}: {exc}") from exc
    try:
        version = _json_int(obj["version"], "'version'", where)
        if version != _FORMAT_VERSION:
            raise DumpError(f"unsupported dump version {version}")
        dim = _json_int(obj["dim"], "'dim'", where, positive=True)
        num_classes = _json_int(obj["num_classes"], "'num_classes'", where, positive=True)
        domains = tuple(
            DomainMeta(_json_int(d["id"], f"'id' of 'domains' entry {i + 1}", where),
                       str(d["name"]), str(d["role"]))
            for i, d in enumerate(obj["domains"])
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, DumpError):
            raise
        raise DumpError(f"malformed header in {where}: {exc}") from exc
    return dim, num_classes, domains


def _json_int(value, field, where, positive=False):
    """Header ``field``'s ``value``, a JSON integer (at least 1 if ``positive``)."""
    if isinstance(value, bool) or not isinstance(value, int) or (positive and value < 1):
        kind = "a positive integer" if positive else "an integer"
        raise DumpError(
            f"malformed header in {where}: field {field} must be {kind}, got {json.dumps(value)}"
        )
    return value


def _record_dtype(dim):
    return np.dtype([("domain", "<u4"), ("split", "u1"), ("label", "<u4"), ("z", "<f4", (dim,))])


def save_dump(ds, path, format=FORMAT_BINARY):
    """Write a dataset dump. Binary dumps round-trip bit exactly; CSV dumps
    carry 9 significant digits, which is lossless for float32 values.  A
    binary record's u32 fields refuse a domain id or label outside
    ``[0, 2**32)`` with a DumpError naming the first, before any write."""
    header = json.dumps(_header_dict(ds), separators=(",", ":"))
    if format == FORMAT_BINARY:
        for name, values in (("domain id", ds.domain_ids), ("label", ds.labels)):
            bad = np.flatnonzero((values < 0) | (values > np.iinfo(np.uint32).max))
            if bad.size:
                raise DumpError(f"{name} {values[bad[0]]} at row {bad[0] + 1} does not fit a "
                                "binary dump's u32 field; the CSV format holds it")
        rec = np.empty(ds.num_samples, dtype=_record_dtype(ds.dim))
        rec["domain"] = ds.domain_ids
        rec["split"] = ds.splits
        rec["label"] = ds.labels
        rec["z"] = ds.z
        hdr = header.encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(bytes([_FORMAT_VERSION]))
            fh.write(np.uint32(len(hdr)).tobytes())
            fh.write(hdr)
            fh.write(rec)
    elif format == FORMAT_CSV:
        # one %-format per block of rows; %.9g of a float32 widened to a Python float
        row = "%d,%s,%d," + ",".join(["%.9g"] * ds.dim) + "\n"
        names = np.array([SPLIT_NAMES[SPLIT_FIT], SPLIT_NAMES[SPLIT_HOLDOUT]])
        block = max(1, _CSV_BLOCK_VALUES // (3 + ds.dim))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header + "\n")
            for s in range(0, ds.num_samples, block):
                rows = slice(s, min(s + block, ds.num_samples))
                values = np.empty((rows.stop - s, 3 + ds.dim), dtype=object)
                values[:, 0] = ds.domain_ids[rows]
                values[:, 1] = names[ds.splits[rows]]
                values[:, 2] = ds.labels[rows]
                values[:, 3:] = ds.z[rows]
                fh.write(row * len(values) % tuple(values.ravel().tolist()))
    else:
        raise DumpError(f"unknown dump format {format!r}")


def load_dump(path, format=FORMAT_BINARY):
    """Read a dataset dump written by :func:`save_dump`. Row order is preserved.

    A binary dump's records are streamed: they are read ``_LOAD_CHUNK_BYTES``
    at a time straight into the dataset's arrays, so the load holds the
    dataset and one chunk, never a second copy of the file.
    """
    if format == FORMAT_BINARY:
        with open(path, "rb") as fh:
            return _load_binary(fh, path)
    if format == FORMAT_CSV:
        with open(path, "rb") as fh:
            lines = _decode(fh.read(), 0, path).splitlines()
        if not lines:
            raise DumpError(f"{path}: empty file")
        dim, num_classes, domains = _parse_header(lines[0], path)
        body = lines[1:]
        if not any(body):
            raise DumpError(f"{path}: dataset has no samples")
        # the first record's width checks the header's dim before it sizes a dtype
        row, first = next((row, line) for row, line in enumerate(body, start=1) if line)
        fields = first.count(",") + 1
        if fields != 3 + dim:
            raise DumpError(
                f"{path}: dimension mismatch at row {row} (expected {3 + dim} fields, "
                f"got {fields}): the header field 'dim' is {dim}"
            )
        # a split flag wider than one character stays wider than one in U2, so it fails the check
        dtype = np.dtype(
            [("domain", "<i8"), ("split", "U2"), ("label", "<i8"), ("z", "<f4", (dim,))]
        )
        try:
            rec = np.loadtxt(body, dtype=dtype, delimiter=",", comments=None, ndmin=1)
            if not np.isin(rec["split"], list(SPLIT_CHARS)).all():
                raise ValueError("split flags must be F or H")
        except ValueError as exc:
            raise _csv_fault(path, body, dim) or DumpError(f"{path}: {exc}") from exc
        splits = rec["split"] == SPLIT_NAMES[SPLIT_HOLDOUT]
        return _build_checked(
            path, dim, num_classes, domains, rec["domain"], splits, rec["label"], rec["z"], body
        )
    raise DumpError(f"unknown dump format {format!r}")


def _load_binary(fh, path):
    """The dataset in the open binary dump ``fh``; see :func:`load_dump`."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(9)
    if head[:4] != _MAGIC:
        raise DumpError(f"{path}: bad magic bytes (not a binary dump)")
    if len(head) < 9:
        raise DumpError(f"{path}: truncated dump")
    if head[4] != _FORMAT_VERSION:
        raise DumpError(f"{path}: unsupported dump version {head[4]}")
    hlen = int.from_bytes(head[5:9], "little")
    if size < 9 + hlen:
        raise DumpError(f"{path}: truncated header")
    dim, num_classes, domains = _parse_header(_decode(fh.read(hlen), 9, path), path)
    body = size - 9 - hlen
    try:
        dtype = _record_dtype(dim)
    except ValueError as exc:  # a record too long for a numpy dtype
        raise DumpError(f"{path}: header field 'dim' is {dim}: {exc}") from exc
    if body % dtype.itemsize != 0:
        raise DumpError(
            f"{path}: record section is not a whole number of records ({body} "
            f"bytes, {dtype.itemsize} per record at the header field 'dim' {dim})"
        )
    n = body // dtype.itemsize
    ids, splits = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.uint8)
    labels, z = np.empty(n, dtype=np.int64), np.empty((n, dim), dtype=np.float32)
    chunk = np.empty(max(1, _LOAD_CHUNK_BYTES // dtype.itemsize), dtype=dtype)
    for s in range(0, n, len(chunk)):
        rec = chunk[: n - s]
        got = fh.readinto(rec.view(np.uint8))
        if got != rec.nbytes:  # the file was cut after its size was taken
            raise DumpError(
                f"{path}: record section reads short: {s * dtype.itemsize + got} of {body} bytes"
            )
        rows = slice(s, s + len(rec))
        ids[rows], splits[rows] = rec["domain"], rec["split"]
        labels[rows], z[rows] = rec["label"], rec["z"]
    return _build_checked(path, dim, num_classes, domains, ids, splits, labels, z)


def _decode(data, offset, path):
    """``data``, the bytes at ``offset`` in the file, as UTF-8 text; a
    DumpError names the file offset of the first byte that is not UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DumpError(
            f"{path}: not UTF-8 text at byte {offset + exc.start} ({exc.reason})"
        ) from exc


def _csv_fault(path, body, dim):
    """The error for the first malformed line of a CSV record section, or None.

    Lines are numbered from 1 after the header, blank lines included; blank
    lines are skipped.  These per-line rules run only after the bulk parse
    has failed, to name the line.  The bulk parse accepts no line they
    reject; the few it rejects and they accept (underscores between digits,
    non-ASCII digits, integers beyond 64 bits) fail with its own message.
    """
    for row, line in enumerate(body, start=1):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3 + dim:
            return DumpError(
                f"{path}: dimension mismatch at row {row} "
                f"(expected {3 + dim} fields, got {len(parts)})"
            )
        try:
            int(parts[0])
            if parts[1] not in SPLIT_CHARS:
                raise ValueError(f"bad split flag {parts[1]!r}")
            int(parts[2])
            for v in parts[3:]:
                float(v)
        except ValueError as exc:
            return DumpError(f"{path}: malformed value at row {row}: {exc}")
    return None


def _build_checked(path, dim, num_classes, domains, ids, splits, labels, z, body=None):
    """Construct the dataset, turning a DatasetError into a DumpError.  Given
    ``body``, a CSV record section, a faulty sample is named by its line.

    A header claiming more classes than the dump has samples is refused
    before anything is sized by the class count."""
    if 0 < len(labels) < num_classes:
        raise DumpError(
            f"{path}: header field 'num_classes' is {num_classes}, "
            f"more than the {len(labels)} samples"
        )
    try:
        return RepresentationDataset(dim, num_classes, domains, ids, splits, labels, z)
    except DatasetError as exc:
        msg = str(exc)
        if body is not None and exc.index is not None:
            msg = exc.at_row([row for row, line in enumerate(body, start=1) if line][exc.index])
        raise DumpError(f"{path}: {msg}") from exc


def sniff_format(path):
    """Guess the dump format from the leading bytes of the file."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    return FORMAT_BINARY if head == _MAGIC else FORMAT_CSV
